"""Path-independent KKT certificate for a returned AC-OPF solution.

The solver decides convergence with its own conditions on its own iterates;
a certificate asks the question again from the outside.  Given a returned
``(x, λ, µ, z)`` it recomputes, at ``x``:

* **stationarity** ``‖∇f + Jgᵀλ + Jhᵀµ‖∞`` over every constraint row, the
  variable-bound rows included;
* **primal feasibility** ``max(‖g‖∞, max h)`` with ``h`` recomputed;
* **complementarity** ``Σ µᵢ·|hᵢ|``, again with the recomputed ``h`` — the
  returned slacks ``z`` are not trusted to equal ``−h``;
* **signs** ``µ ≥ 0`` and ``z > 0``.

Each residual is scaled as MATPOWER scales its termination tests
(stationarity by ``1 + max(‖λ‖∞, ‖µ‖∞)``, feasibility and complementarity by
``1 + ‖x‖∞``).  The problem certified is the one every solve poses: squared
apparent-power limits on the rated branches and the solver's fixed-variable
threshold :data:`~repro.mips.options.BOUND_EQ_TOL`.  Everything is evaluated
through the matrix-form
:func:`~repro.opf.costs.objective` and
:func:`~repro.opf.constraints.constraint_function` on the *structurally*
outaged case — outaged branches removed, not zeroed — and the bound rows are
re-derived from :meth:`~repro.opf.model.OPFModel.bounds`, so nothing here
shares code with the lockstep solver's convergence test or its element
kernels.

A solution whose branch outages were per-row data of a lockstep batch keeps
the intact network's inequality rows: an outaged rated branch's two flow
rows are *slack rows* with zero flow (``h = −Smax²``, no Jacobian).  The
certificate accepts both layouts — intact-size ``µ``/``z`` with those slack
rows in place, or the outaged model's smaller layout — and a slack row then
contributes only its complementarity product ``µ·Smax²``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.grid.components import Case
from repro.grid.validation import validate_outage_branches
from repro.mips.options import BOUND_EQ_TOL
from repro.opf.constraints import constraint_function
from repro.opf.costs import objective
from repro.opf.model import OPFModel, rated_branches

__all__ = ["CERTIFICATE_TOL", "KKTCertificate", "certify_opf"]

#: Acceptance tolerance on the three scaled residuals — ten times the
#: solver's default termination tolerances, which test differently scaled
#: quantities on the solver's own iterates.
CERTIFICATE_TOL = 1e-5


@dataclass(frozen=True)
class KKTCertificate:
    """Scaled KKT residuals of one solution (see the module docstring)."""

    stationarity: float
    feasibility: float
    complementarity: float
    #: Smallest inequality multiplier (must be ``>= 0``).
    min_mu: float
    #: Smallest slack (must be ``> 0``).
    min_z: float

    def holds(self) -> bool:
        """Whether the solution is a KKT point to within :data:`CERTIFICATE_TOL`."""
        return bool(
            max(self.stationarity, self.feasibility, self.complementarity) <= CERTIFICATE_TOL
            and self.min_mu >= 0.0
            and self.min_z > 0.0
        )


def certify_opf(
    case: Case,
    solution,
    Pd_mw: Optional[np.ndarray] = None,
    Qd_mvar: Optional[np.ndarray] = None,
    outages: Sequence[int] = (),
) -> KKTCertificate:
    """Certify ``solution`` (anything with ``x``, ``lam``, ``mu``, ``z``).

    ``case`` is the intact network, ``Pd_mw``/``Qd_mvar`` the scenario's
    loads (case loads when omitted) and ``outages`` its branch-outage set.
    Multipliers follow the solver's internal ordering: ``λ`` is
    ``[power balance; fixed variables]`` and ``µ``/``z`` are
    ``[flow limits; upper bounds; lower bounds]``.
    """
    validate_outage_branches(outages, case.n_branch)
    outaged = case.copy()
    outaged.branch.status[list(outages)] = 0
    model = OPFModel(outaged)
    x = np.asarray(solution.x, dtype=float)
    lam = np.asarray(solution.lam, dtype=float)
    mu = np.asarray(solution.mu, dtype=float)
    z = np.asarray(solution.z, dtype=float)
    if x.shape != (model.idx.nx,) or z.shape != mu.shape:
        raise ValueError(
            f"x of shape {x.shape} (expected ({model.idx.nx},)), µ/z of shapes {mu.shape}/{z.shape}"
        )

    _, df, _ = objective(model, x)
    g_nl, h_nl, Jg_nl, Jh_nl = constraint_function(model, Pd_mw, Qd_mvar)(x)

    xmin, xmax = model.bounds()
    lo, hi = np.isfinite(xmin), np.isfinite(xmax)
    fixed = lo & hi & (np.abs(xmax - xmin) <= BOUND_EQ_TOL)
    eq, ub, lb = (np.flatnonzero(m) for m in (fixed, hi & ~fixed, lo & ~fixed))
    n_bound_rows = ub.size + lb.size

    # Intact-size µ/z carry slack rows for the outaged rated branches.
    if mu.size != h_nl.size + n_bound_rows:
        intact = rated_branches(case)
        live = np.tile(~np.isin(intact, outages), 2)
        if mu.size != live.size + n_bound_rows:
            raise ValueError(
                f"µ/z of size {mu.size} fit neither the intact nor the outaged inequality "
                f"rows ({live.size} or {h_nl.size} flow rows + {n_bound_rows} bounds)"
            )
        h_full = np.tile(-(case.branch.rate_a[intact] / case.base_mva) ** 2, 2)
        h_full[live] = h_nl
        mu_nl = mu[: live.size][live]
        h_nl = h_full
    else:
        mu_nl = mu[: h_nl.size]
    n_flow = h_nl.size
    if lam.size != g_nl.size + eq.size:
        raise ValueError(f"λ of size {lam.size}, expected {g_nl.size + eq.size}")

    grad = df + Jg_nl.T @ lam[: g_nl.size] + Jh_nl.T @ mu_nl
    grad[eq] += lam[g_nl.size :]
    grad[ub] += mu[n_flow : n_flow + ub.size]
    grad[lb] -= mu[n_flow + ub.size :]

    g = np.concatenate([g_nl, x[eq] - xmin[eq]])
    h = np.concatenate([h_nl, x[ub] - xmax[ub], xmin[lb] - x[lb]])
    x_scale = 1.0 + np.abs(x).max(initial=0.0)
    dual_scale = 1.0 + max(np.abs(lam).max(initial=0.0), np.abs(mu).max(initial=0.0))
    return KKTCertificate(
        stationarity=float(np.abs(grad).max(initial=0.0) / dual_scale),
        feasibility=float(max(np.abs(g).max(initial=0.0), h.max(initial=0.0)) / x_scale),
        complementarity=float(np.abs(mu * h).sum() / x_scale),
        min_mu=float(mu.min(initial=np.inf)),
        min_z=float(z.min(initial=np.inf)),
    )
