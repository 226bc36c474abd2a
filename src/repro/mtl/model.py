"""The Smart-PGSim multitask-learning model (Section VI of the paper).

The network maps the load vector ``[Pd, Qd]`` to seven task outputs:

* **main tasks** — the primal solution components ``Va, Vm, Pg, Qg``;
* **auxiliary tasks** — the equality multipliers ``λ``, the slacks ``Z`` and
  the inequality multipliers ``µ``.

Information sharing happens in the five shared (trunk) layers; each task has
its own estimator head.  Two domain-specific mechanisms from the paper are
implemented exactly:

* **feature prioritisation / detach knob** — when ``detach_auxiliary=True``
  the auxiliary heads receive detached copies of the trunk features and of the
  predicted ``X``, so their gradients cannot perturb the layers that serve the
  main task;
* **physics-dependent hierarchy** — ``Z`` is predicted from the trunk features
  *and* the predicted ``X``; ``µ`` additionally sees the predicted ``Z``,
  mirroring the computation order of the interior-point update.

``Z`` and ``µ`` heads end in a sigmoid so that (in normalised target space)
their outputs are hard-bounded to ``[0, 1]`` — the paper's hard-constraint
treatment of the positivity requirements ``Z > 0`` and ``µ > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.mtl.config import MTLConfig
from repro.nn.modules import Linear, Module, ReLU, Sequential, Sigmoid, mlp
from repro.nn.tensor import Tensor, as_tensor, concatenate
from repro.utils.rng import ensure_rng

@dataclass(frozen=True)
class TaskDimensions:
    """Output dimensionality of each prediction task for one test system."""

    n_bus: int
    n_gen: int
    n_eq: int
    n_ineq: int

    def as_dict(self) -> Dict[str, int]:
        """Mapping task name → output width."""
        return {
            "Va": self.n_bus,
            "Vm": self.n_bus,
            "Pg": self.n_gen,
            "Qg": self.n_gen,
            "lam": self.n_eq,
            "z": self.n_ineq,
            "mu": self.n_ineq,
        }

    @property
    def n_inputs(self) -> int:
        """Model input width (active + reactive load per bus)."""
        return 2 * self.n_bus


def _trunk_widths(n_inputs: int, config: MTLConfig) -> List[int]:
    widths = [max(8, int(round(n_inputs * s))) for s in config.shared_layer_scales]
    if config.width_cap is not None:
        widths = [min(w, config.width_cap) for w in widths]
    return widths


def _head(in_dim: int, out_dim: int, config: MTLConfig, positive: bool, rng) -> Sequential:
    hidden = max(config.head_min_width, int(round(in_dim * config.head_width_fraction)))
    layers = [Linear(in_dim, hidden, rng=rng), ReLU(), Linear(hidden, out_dim, rng=rng)]
    if positive:
        layers.append(Sigmoid())
    return Sequential(*layers)


class SmartPGSimMTL(Module):
    """Multitask model with shared trunk, task heads and the physics hierarchy."""

    def __init__(self, dims: TaskDimensions, config: Optional[MTLConfig] = None, seed: Optional[int] = None):
        super().__init__()
        self.config = config or MTLConfig()
        self.config.validate()
        self.dims = dims
        rng = ensure_rng(self.config.seed if seed is None else seed)

        widths = _trunk_widths(dims.n_inputs, self.config)
        self.trunk = mlp([dims.n_inputs, *widths], activation=ReLU, output_activation=ReLU, rng=rng)
        trunk_out = widths[-1]
        n_x = 2 * dims.n_bus + 2 * dims.n_gen

        # Main-task estimators.  Vm/Pg/Qg targets are normalised to [0, 1] so a
        # sigmoid keeps them inside their (bound-induced) box; Va is unbounded.
        self.head_Va = _head(trunk_out, dims.n_bus, self.config, positive=False, rng=rng)
        self.head_Vm = _head(trunk_out, dims.n_bus, self.config, positive=True, rng=rng)
        self.head_Pg = _head(trunk_out, dims.n_gen, self.config, positive=True, rng=rng)
        self.head_Qg = _head(trunk_out, dims.n_gen, self.config, positive=True, rng=rng)
        # Auxiliary estimators with the physics-dependent hierarchy.
        self.head_lam = _head(trunk_out, dims.n_eq, self.config, positive=False, rng=rng)
        self.head_z = _head(trunk_out + n_x, dims.n_ineq, self.config, positive=True, rng=rng)
        self.head_mu = _head(trunk_out + n_x + dims.n_ineq, dims.n_ineq, self.config, positive=True, rng=rng)

    # ------------------------------------------------------------------ forward
    def forward(self, inputs: Tensor, detach_auxiliary: bool = False) -> Dict[str, Tensor]:
        """Predict all seven tasks for a batch of normalised load vectors.

        ``detach_auxiliary`` activates the paper's detach knob: gradients from
        the auxiliary tasks are blocked from reaching the shared trunk and the
        main-task predictions.
        """
        inputs = as_tensor(inputs)
        features = self.trunk(inputs)

        Va = self.head_Va(features)
        Vm = self.head_Vm(features)
        Pg = self.head_Pg(features)
        Qg = self.head_Qg(features)
        x_pred = concatenate([Va, Vm, Pg, Qg], axis=1)

        aux_features = features.detach() if detach_auxiliary else features
        aux_x = x_pred.detach() if detach_auxiliary else x_pred

        lam = self.head_lam(aux_features)
        z = self.head_z(concatenate([aux_features, aux_x], axis=1))
        mu = self.head_mu(concatenate([aux_features, aux_x, z], axis=1))

        return {"Va": Va, "Vm": Vm, "Pg": Pg, "Qg": Qg, "lam": lam, "z": z, "mu": mu}

    # -------------------------------------------------------------- conveniences
    def predict(self, inputs: np.ndarray) -> Dict[str, np.ndarray]:
        """Inference on a NumPy batch; returns NumPy arrays (normalised space)."""
        outputs = self.forward(Tensor(np.atleast_2d(inputs)))
        return {task: out.data.copy() for task, out in outputs.items()}
