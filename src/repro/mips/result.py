"""Result containers for the MIPS solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one MIPS iteration (drives the Fig. 10 convergence traces).

    ``step_size`` is the infinity norm of the primal Newton step ``|Δx|``; the
    four condition values are exactly the quantities tested against the
    termination tolerances.  ``gamma`` is the barrier target: on a fixed-σ
    row the ``SIGMA·zᵀµ/niq`` the next step aims at, on a predictor–corrector
    row the ``σµ`` this step aimed at (iteration 0: the entry value).  The
    Fig. 5 component times are per solve, on ``MIPSResult.phase_seconds``.
    """

    iteration: int
    step_size: float
    feascond: float
    gradcond: float
    compcond: float
    costcond: float
    objective: float
    gamma: float
    alpha_primal: float
    alpha_dual: float


@dataclass(frozen=True)
class ConstraintPartition:
    """How the internal constraint vectors are laid out.

    Equalities are ordered ``[nonlinear, fixed-variable bounds]`` and
    inequalities ``[nonlinear, upper bounds, lower bounds]``.  The index arrays
    refer to positions in the decision vector ``x`` for the bound-derived
    rows, allowing callers (the OPF layer, the warm-start machinery) to map
    multipliers back onto named quantities.
    """

    n_eq_nonlin: int
    n_ineq_nonlin: int
    eq_bound_idx: np.ndarray
    ub_idx: np.ndarray
    lb_idx: np.ndarray

    @property
    def n_eq(self) -> int:
        """Total number of equality constraints."""
        return self.n_eq_nonlin + self.eq_bound_idx.size

    @property
    def n_ineq(self) -> int:
        """Total number of inequality constraints."""
        return self.n_ineq_nonlin + self.ub_idx.size + self.lb_idx.size


@dataclass
class MIPSResult:
    """Outcome of a MIPS solve.

    ``lam`` holds the equality multipliers, ``mu`` the inequality multipliers
    and ``z`` the positive slacks, all in the internal ordering described by
    ``partition``.  ``history`` holds one record per iteration, the entry
    point included (iteration 0).  ``phase_seconds`` aggregates per-phase
    solver time over all iterations under the keys ``"eval"``, ``"assembly"``,
    ``"factorization"`` and ``"backsolve"``.
    """

    x: np.ndarray
    f: float
    converged: bool
    iterations: int
    lam: np.ndarray
    mu: np.ndarray
    z: np.ndarray
    partition: ConstraintPartition
    message: str = ""
    history: List[IterationRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Number of singular-KKT factorisations recovered by diagonal
    #: regularisation (0 for a well-posed solve; non-zero flags
    #: ill-conditioning that the seed solver would have failed hard on).
    kkt_regularizations: int = 0
    #: Factorisation telemetry of the KKT solve at the end of the solve
    #: (:meth:`repro.mips.ldl.LDLSolver.telemetry`):
    #: ``numeric_refactorizations``, ``block_factorizations``,
    #: ``refinement_solves``, ``corrector_solves`` and ``pivot_clamps``.
    #: The symbolic analysis is the lockstep plan's, done once per plan
    #: before any solve, so the counters count numeric work only.
    #: A lockstep batch shares one solver, so its rows report batch-level
    #: aggregates snapshotted at their retirement.
    kkt_telemetry: Dict[str, int] = field(default_factory=dict)
    #: True when the solve was terminated by its wall deadline (``message``
    #: carries the detail) — a resource outcome, not a numerical failure.
    timed_out: bool = False
    #: True when the solve retired on the infeasibility verdict: still
    #: infeasible, with its largest multiplier far beyond its entry scale
    #: (:mod:`repro.mips.batch`) — a hopeless row, not a numerical failure.
    infeasible: bool = False
    #: This solve's *additive* share of wall time: the sum of each
    #: iteration's wall time divided by the number of problems active in that
    #: iteration, so shares sum to the batch wall and stay comparable with
    #: one-problem solve times (``elapsed_seconds`` keeps meaning
    #: wall-clock-until-retirement, which overlaps across the batch).
    wall_share_seconds: float = 0.0
