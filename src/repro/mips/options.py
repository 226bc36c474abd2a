"""Settings of the MIPS primal-dual interior-point method.

The solver runs MATPOWER's MIPS at its default settings, so those settings are
module constants here, not options.  The one value a caller may set is the
iteration cap of :class:`MIPSOptions`, which is checked when it is built: an
invalid value raises at the caller instead of inside a worker's solve.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Feasibility (constraint violation) tolerance.
FEASTOL = 1e-6
#: Lagrangian-gradient tolerance.
GRADTOL = 1e-6
#: Complementarity tolerance.
COMPTOL = 1e-6
#: Relative cost-change tolerance.
COSTTOL = 1e-6
#: Step-length safety factor keeping iterates strictly interior.
XI = 0.99995
#: Centering parameter of the barrier update ``gamma = SIGMA * zᵀµ / niq``
#: (the fixed-σ step), and the floor of the predictor–corrector ``σ``.
SIGMA = 0.1
#: Floor of the predictor–corrector ``σ`` once a row is feasible (its
#: ``feascond`` below ``FEASTOL``): the endgame of :mod:`repro.mips.batch`.
SIGMA_END = 0.02
#: Floor of the initial slacks.  MATPOWER's entry also starts the multipliers
#: and the barrier target of a row with no warm duals at it; a cold row's
#: barrier target is ``max(Z0, ‖∇f(x₀)‖∞)`` instead (:mod:`repro.mips.batch`).
Z0 = 1.0
#: Declare numerical failure when the step or iterate norm exceeds this.
MAX_STEPSIZE = 1e10
#: A variable with ``|xmax - xmin| <= BOUND_EQ_TOL`` is an equality row.
BOUND_EQ_TOL = 1e-10


@dataclass(frozen=True)
class MIPSOptions:
    """The iteration cap of a MIPS solve (MATPOWER's default is 150).

    Construction raises ``TypeError`` unless ``max_it`` is an ``int`` (a
    ``bool`` is not) and ``ValueError`` when it is below 1.
    """

    #: Maximum number of interior-point iterations.
    max_it: int = 150

    def __post_init__(self) -> None:
        if isinstance(self.max_it, bool) or not isinstance(self.max_it, int):
            raise TypeError(f"max_it must be an int, got {self.max_it!r}")
        if self.max_it < 1:
            raise ValueError("max_it must be at least 1")
