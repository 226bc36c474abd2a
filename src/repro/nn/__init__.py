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
from repro.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.nn.schedulers import Scheduler, StepLR
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
    "Adam",
    "clip_grad_norm",
    "Scheduler",
    "StepLR",
    "kaiming_uniform",
    "zeros",
]
