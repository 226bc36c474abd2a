"""Solver options for the MIPS primal-dual interior-point method.

The options are checked when they are built, so an invalid value raises
``ValueError`` at the caller instead of inside a worker's solve.  The Newton
systems have one solve, :class:`~repro.mips.ldl.LDLSolver`, whose constants
are not options.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MIPSOptions:
    """Options controlling the MIPS iteration.

    Defaults match MATPOWER's MIPS solver: the four termination tolerances
    (feasibility, gradient, complementarity, cost), the maximum iteration
    count, the step-length safety factor ``xi`` and the centering parameter
    ``sigma`` of the barrier update.  Construction raises ``ValueError``
    for a non-positive tolerance, ``max_it < 1``, ``xi`` outside ``(0, 1)``,
    ``sigma`` outside ``(0, 1]`` or a non-positive ``z0``.
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
    #: Record per-iteration history (needed for Fig. 10 traces).
    record_history: bool = True
    #: Print one line per iteration via the ``repro.mips`` logger.
    verbose: bool = False

    def __post_init__(self) -> None:
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
