"""Neural-network modules: parameter containers and layers.

The API intentionally mirrors a small subset of ``torch.nn`` so the MTL model
code in :mod:`repro.mtl` reads like the architecture description in the paper:
``Linear`` layers, activation modules, ``Sequential`` containers and a
``Module`` base class with ``parameters()`` / ``state_dict()`` traversal.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.init import kaiming_uniform, zeros
from repro.nn.tensor import Tensor
from repro.utils.rng import RNGLike, ensure_rng


class Parameter(Tensor):
    """A tensor that is updated by optimisers (``requires_grad`` always true)."""

    def __init__(self, data: np.ndarray):
        super().__init__(np.asarray(data, dtype=float), requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Sub-modules and parameters assigned as attributes are discovered
    automatically, exactly as users of mainstream frameworks expect.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -------------------------------------------------------------- attribute magic
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ traversal
    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its sub-modules (depth-first)."""
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs with dotted paths."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Switch training mode on (or off with ``mode=False``)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode."""
        return self.train(False)

    # --------------------------------------------------------------- state dicts
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=float)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.copy()

    def n_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    # ----------------------------------------------------------------- forward
    def forward(self, *args, **kwargs):
        """Compute the module output (must be overridden)."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully-connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng: RNGLike = None):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("layer sizes must be positive")
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform(in_features, out_features, rng))
        self.bias = Parameter(zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic sigmoid activation (used as the hard-bound output of Z and µ)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


def mlp(
    sizes: List[int],
    activation: type = ReLU,
    output_activation: Optional[type] = None,
    rng: RNGLike = None,
) -> Sequential:
    """Build a multilayer perceptron with the given layer ``sizes``.

    ``sizes = [n_in, h1, ..., n_out]``; the activation is applied between all
    layers and ``output_activation`` (a module class or ``None``) after the
    last one.
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    rng = ensure_rng(rng)
    layers: List[Module] = []
    for i in range(len(sizes) - 1):
        layers.append(Linear(sizes[i], sizes[i + 1], rng=rng))
        if i < len(sizes) - 2:
            layers.append(activation())
    if output_activation is not None:
        layers.append(output_activation())
    return Sequential(*layers)
