"""Solver options for the MIPS primal-dual interior-point method."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class MIPSOptions:
    """Options controlling the MIPS iteration.

    Defaults match MATPOWER's MIPS solver: the four termination tolerances
    (feasibility, gradient, complementarity, cost), the maximum iteration
    count, the step-length safety factor ``xi`` and the centering parameter
    ``sigma`` of the barrier update.
    """

    #: Feasibility (constraint violation) tolerance.
    feastol: float = 1e-6
    #: Lagrangian-gradient tolerance.
    gradtol: float = 1e-6
    #: Complementarity tolerance.
    comptol: float = 1e-6
    #: Relative cost-change tolerance.
    costtol: float = 1e-6
    #: Maximum number of interior-point iterations.
    max_it: int = 150
    #: Step-length safety factor keeping iterates strictly interior.
    xi: float = 0.99995
    #: Centering parameter of the barrier update ``gamma = sigma * zᵀµ / niq``.
    sigma: float = 0.1
    #: Initial value used for slack variables and multipliers.
    z0: float = 1.0
    #: Multiplier applied to the objective (MATPOWER uses this to balance
    #: objective and constraint scales; the OPF layer leaves it at 1).
    cost_mult: float = 1.0
    #: Treat ``|xmax - xmin| <= bound_eq_tol`` as an equality constraint.
    bound_eq_tol: float = 1e-10
    #: Declare numerical failure when the step or iterate norm exceeds this.
    max_stepsize: float = 1e10
    #: KKT linear-solver backend.  ``"ldl"`` (the default) is the same-pattern
    #: sparse LDLᵀ refactorisation of :mod:`repro.mips.ldl`: one symbolic
    #: analysis reused across all pattern-identical iterations, a batched
    #: level-scheduled numeric sweep below a cut of the elimination tree, one
    #: dense pivoted LU per scenario above it, solutions refined to 1e-10
    #: against the true matrix.  On cold case118s it is level with
    #: ``"factorized"`` (within 10 %) at lockstep width 1, ahead from width 3
    #: up and takes 0.55-0.64x its time at width 16 (``benchmarks/README.md``,
    #: "Choosing a KKT linear-solver backend").  ``"factorized"`` is the only
    #: other value: the stateless SuperLU reference the parity suites compare
    #: against (one direct ``splu`` per scenario per iteration, singular-matrix
    #: regularisation).  See :mod:`repro.mips.linsolve`.
    kkt_solver: str = "ldl"
    #: Initial diagonal shift used when a KKT factorisation is singular.
    kkt_reg: float = 1e-8
    #: Number of escalating regularisation retries before declaring failure.
    kkt_max_retries: int = 3
    #: Per-solve wall budget in seconds (``None`` = unbounded).  Checked
    #: cooperatively between iterations; an exhausted budget terminates the
    #: solve with ``timed_out`` set instead of raising.  In lockstep batch
    #: solves the budget is *per scenario*, measured from each scenario's own
    #: enrollment — the row-level counterpart of the per-row ``max_it``.
    max_wall_seconds: Optional[float] = None
    #: Record per-iteration history (needed for Fig. 10 traces).
    record_history: bool = True
    #: Print one line per iteration via the ``repro.mips`` logger.
    verbose: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` for non-sensical settings."""
        for name in ("feastol", "gradtol", "comptol", "costtol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_it < 1:
            raise ValueError("max_it must be at least 1")
        if not 0 < self.xi < 1:
            raise ValueError("xi must be in (0, 1)")
        if not 0 < self.sigma <= 1:
            raise ValueError("sigma must be in (0, 1]")
        if self.z0 <= 0:
            raise ValueError("z0 must be positive")
        from repro.mips.linsolve import available_kkt_solvers

        if self.kkt_solver not in available_kkt_solvers():
            raise ValueError(
                f"kkt_solver must be one of {available_kkt_solvers()}, "
                f"got {self.kkt_solver!r}"
            )
        if self.kkt_reg <= 0:
            raise ValueError("kkt_reg must be positive")
        if self.kkt_max_retries < 0:
            raise ValueError("kkt_max_retries must be non-negative")
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive (or None)")
