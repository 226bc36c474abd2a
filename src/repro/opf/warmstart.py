"""Warm-start containers for the AC-OPF / MIPS pipeline.

A :class:`WarmStart` carries exactly the quantities the paper's MTL model
predicts — the primal point ``X = (Va, Vm, Pg, Qg)``, the equality multipliers
``λ``, the inequality multipliers ``µ`` and the slack variables ``Z`` — in the
MIPS-internal ordering, so it can be injected straight into the solver.  It
also supports the per-group mixing of *precise* and *imprecise* data used by
the Table I sensitivity study.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

#: Smallest ``µ`` / ``Z`` entry :meth:`WarmStart.clipped_duals` lets through.
_DUAL_FLOOR = 1e-8


@dataclass(frozen=True)
class WarmStart:
    """Initial values for the MIPS primal and dual variables.

    Any of the fields may be ``None`` meaning "use the solver default"
    (the paper's *imprecise default data*).
    """

    x: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None

    # ------------------------------------------------------------- sensitivity
    def masked(
        self,
        use_x: bool = True,
        use_lam: bool = True,
        use_mu: bool = True,
        use_z: bool = True,
    ) -> "WarmStart":
        """Keep only the selected components (others fall back to defaults).

        This is the knob behind the 16-combination ablation of Table I: each
        of ``X, λ, µ, Z`` is independently either *precise* (kept) or
        *imprecise* (dropped → solver default).
        """
        return WarmStart(
            x=self.x if use_x else None,
            lam=self.lam if use_lam else None,
            mu=self.mu if use_mu else None,
            z=self.z if use_z else None,
        )

    def clipped_duals(self) -> "WarmStart":
        """Return a copy with ``µ`` and ``Z`` clipped to at least ``_DUAL_FLOOR``.

        Interior-point iterates must stay strictly inside the cone; predicted
        values can otherwise contain small negative entries.
        """
        mu = None if self.mu is None else np.maximum(self.mu, _DUAL_FLOOR)
        z = None if self.z is None else np.maximum(self.z, _DUAL_FLOOR)
        return replace(self, mu=mu, z=z)
