"""Minimal NumPy neural-network stack: autograd, layers, the Charbonnier loss, optimisers."""

from repro.nn.tensor import Tensor, as_tensor, concatenate
from repro.nn.modules import (
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    mlp,
)
from repro.nn.losses import charbonnier
from repro.nn.optim import Adam, Optimizer, SGD, clip_grad_norm
from repro.nn.schedulers import Scheduler, StepLR
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.init import kaiming_uniform, zeros

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Sequential",
    "mlp",
    "charbonnier",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "Scheduler",
    "StepLR",
    "save_state_dict",
    "load_state_dict",
    "kaiming_uniform",
    "zeros",
]
