"""Optimisers and gradient utilities.

Optimisers expose ``state_dict()`` / ``load_state_dict()`` so a training run
can be checkpointed and resumed *bitwise*: Adam's moment estimates and step
counter are exactly what make a resumed update sequence identical to an
uninterrupted one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.modules import Parameter


def _load_slot_arrays(
    name: str, values: List[np.ndarray], params: List[Parameter]
) -> List[np.ndarray]:
    """Validate and copy per-parameter state arrays from a state dict."""
    if len(values) != len(params):
        raise ValueError(
            f"{name} has {len(values)} entries for {len(params)} parameters"
        )
    out = []
    for i, (value, param) in enumerate(zip(values, params)):
        arr = np.asarray(value, dtype=float)
        if arr.shape != param.data.shape:
            raise ValueError(
                f"{name}[{i}] shape {arr.shape} does not match parameter "
                f"shape {param.data.shape}"
            )
        out.append(arr.copy())
    return out


class Optimizer:
    """Base class: holds the parameter list and implements ``zero_grad``."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update (must be overridden)."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Serialisable optimiser state (parameter values are *not* included)."""
        return {"lr": self.lr}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict` (shapes must match)."""
        self.lr = float(state["lr"])


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with optional decoupled weight decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                p.data = p.data * (1.0 - self.lr * self.weight_decay)
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["t"] = self._t
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        self._t = int(state["t"])
        self._m = _load_slot_arrays("m", list(state["m"]), self.params)
        self._v = _load_slot_arrays("v", list(state["v"]), self.params)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params)))
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
