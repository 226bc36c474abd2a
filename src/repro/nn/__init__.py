"""Minimal NumPy neural-network stack: autograd, layers, losses, optimisers."""

from repro.nn.tensor import Tensor, as_tensor, concatenate, stack_scalars
from repro.nn.modules import (
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Softplus,
    mlp,
)
from repro.nn.losses import CharbonnierLoss, L1Loss, MSELoss, charbonnier, l1, mse
from repro.nn.optim import Adam, Optimizer, SGD, clip_grad_norm
from repro.nn.schedulers import CosineAnnealingLR, ExponentialLR, Scheduler, StepLR
from repro.nn.serialization import load_module, load_state_dict, save_module, save_state_dict
from repro.nn.init import kaiming_uniform, zeros

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack_scalars",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Softplus",
    "Sequential",
    "mlp",
    "charbonnier",
    "mse",
    "l1",
    "CharbonnierLoss",
    "MSELoss",
    "L1Loss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "Scheduler",
    "StepLR",
    "ExponentialLR",
    "CosineAnnealingLR",
    "save_state_dict",
    "load_state_dict",
    "save_module",
    "load_module",
    "kaiming_uniform",
    "zeros",
]
