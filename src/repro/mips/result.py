"""Result containers for the MIPS solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one MIPS iteration (drives the Fig. 10 convergence traces).

    ``step_size`` is the infinity norm of the primal Newton step ``|Δx|``; the
    four condition values are exactly the quantities tested against the
    termination tolerances.  The four ``*_seconds`` fields split the
    iteration's wall-clock time into callback evaluation, KKT assembly,
    factorisation and back-substitution (the Fig. 5 component times).
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
    eval_seconds: float = 0.0
    assembly_seconds: float = 0.0
    factor_seconds: float = 0.0
    backsolve_seconds: float = 0.0


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
    ``partition``.  ``history`` is non-empty when the solver was configured
    with ``record_history=True``.  ``phase_seconds`` aggregates per-phase
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
    #: Factorisation telemetry harvested from the KKT backend at the end of
    #: the solve (``repro.mips.linsolve.solver_telemetry``):
    #: ``numeric_refactorizations`` on both backends, plus ``symbolic_reuses``,
    #: ``block_factorizations``, ``refinement_solves`` and ``pivot_clamps`` on
    #: ``"ldl"`` only (the ``"factorized"`` reference reuses nothing).  Lets
    #: the Fig. 5 breakdown attribute factorisation time to symbolic analysis
    #: vs numeric sweeps.  A lockstep batch shares one solver, so its rows
    #: report batch-level aggregates snapshotted at their retirement.
    kkt_telemetry: Dict[str, int] = field(default_factory=dict)
    #: True when the solve was terminated by a wall deadline or per-solve
    #: wall budget (``message`` carries the detail) — a resource outcome, not
    #: a numerical failure.
    timed_out: bool = False
    #: This solve's *additive* share of wall time: the sum of each
    #: iteration's wall time divided by the number of problems active in that
    #: iteration, so shares sum to the batch wall and stay comparable with
    #: one-problem solve times (``elapsed_seconds`` keeps meaning
    #: wall-clock-until-retirement, which overlaps across the batch).
    wall_share_seconds: float = 0.0

    @property
    def eflag(self) -> int:
        """MATPOWER-style exit flag: 1 converged, 0 iteration limit, -1 failed."""
        if self.converged:
            return 1
        if self.timed_out:
            # A budget outcome, like the iteration limit: the iterates are
            # fine, the solver just ran out of allotted resources.
            return 0
        return 0 if "iteration limit" in self.message else -1

    def final_conditions(self) -> Optional[IterationRecord]:
        """The last recorded iteration (``None`` when history is disabled)."""
        return self.history[-1] if self.history else None

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "converged" if self.converged else f"FAILED ({self.message})"
        return (
            f"MIPS {status} in {self.iterations} iterations, "
            f"objective {self.f:.6g}"
        )
