"""Batch-vectorised AC-OPF evaluation and the batched solve driver.

:class:`BatchedOPFModel` is the batch-axis counterpart of
:class:`~repro.opf.model.OPFModel`: for a ``(B, nx)`` state matrix it
evaluates the objective, the nonlinear constraints and the *data planes* of
their Jacobians and of the Lagrangian Hessian — ``(B, nnz)`` arrays on
sparsity templates fixed per case.  The only per-scenario work left
(factorise / backsolve) lives in :func:`repro.mips.batch.mips_batch`.

Evaluation runs per network element.  Each in-service branch has two *ends*;
at an end with own bus ``o`` and far bus ``r`` the complex power entering the
branch is::

    S = p·a² + q·a·b·e^{jδ},    a = Vm_o,  b = Vm_r,  δ = Va_o − Va_r,

with ``p = conj(Y_self)`` and ``q = conj(Y_mutual)`` the end's two-port
admittances.  A bus injection is the sum of the end flows at the bus plus its
shunt term, a flow limit is ``|S|²`` of a rated end, and every first and
second derivative follows in closed form from those of ``S`` in
``(δ, a, b)``; the Lagrangian weights an end by ``κ = c + 2µ·conj(S)`` with
``c = λP − jλQ`` of its own bus and ``µ`` its flow-limit multiplier.  All
ends are evaluated at once as batch-minor ``(n_ends, B)`` arrays, and fixed
sparse assembly operators, built once per model, add the element values into
the template data planes — one sparse product per plane.

A branch is nothing but its coefficients, so an outage is a zero coefficient:
a per-row in-service mask (:meth:`BatchedOPFModel.in_service`) lets the
scenarios of different N-k topologies share the intact network's patterns,
one KKT symbolic analysis and one lockstep batch.  An outaged rated branch
keeps its two flow-limit rows as slack rows (``h = −Smax²``, zero Jacobian).

:func:`solve_opf_batch` is the one AC-OPF solve path: it solves a batch of
scenarios of one case in lockstep and returns one
:class:`~repro.opf.result.OPFResult` per scenario; a single scenario
(:func:`~repro.opf.solver.solve_opf`) is its one-row case.  Loads, warm
starts and branch outages vary per row; patterns and variable bounds are
shared.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.grid.components import Case
from repro.grid.validation import validate_outage_branches
from repro.mips.batch import LockstepPlan, mips_batch
from repro.mips.options import MIPSOptions
from repro.opf.model import OPFModel
from repro.opf.result import OPFResult, build_opf_result
from repro.opf.warmstart import WarmStart
from repro.powerflow.ybus import branch_admittances
from repro.utils import planes
from repro.utils.sparse import csr_rows

__all__ = ["BatchedOPFModel", "solve_opf_batch"]

#: Variables an end's ``(δ, a, b)`` derivatives land on, as ``(role, sign)``
#: pairs; roles index ``(Va_own, Va_far, Vm_own, Vm_far)``.
_FIRST = (((0, 1.0), (1, -1.0)), ((2, 1.0),), ((3, 1.0),))
#: The six second derivatives ``(δδ, δa, δb, aa, ab, bb)`` as index pairs.
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
#: The curvature value channels of :meth:`BatchedOPFModel.hessian` as
#: ``(pair, coefficient)``: ``Re(κ·S_xy)`` is ``−Re(κqE)·ab``, ``−Im(κqE)·b``,
#: ``−Im(κqE)·a``, ``2·Re(κp)`` and ``Re(κqE)`` for δδ, δa, δb, aa, ab
#: (``S_bb = 0``).
_CURVATURE = ((0, -1.0), (1, -1.0), (2, -1.0), (3, 2.0), (4, 1.0))


def _second_stencil(x: int, y: int):
    """``(row_role, col_role, sign)`` entries of the second derivative ``xy``."""
    out = [(ri, ci, si * sj) for ri, si in _FIRST[x] for ci, sj in _FIRST[y]]
    if x != y:
        out += [(ci, ri, s) for ri, ci, s in out]
    return out


class _ElementMap:
    """Fixed sparse operator from element values onto one template's data plane.

    Entries are registered as ``(row, col, source, coefficient)``: row
    ``source`` of the batch-minor ``(n_src, B)`` value matrix, times
    ``coefficient``, is added to the template entry ``(row, col)``.
    :meth:`build` derives the template (the pattern of every registered
    position) and the operator; calling the map turns the values into the
    ``(B, nnz)`` data plane with one sparse product, every batch column
    reduced on its own in a fixed order.
    """

    def __init__(self, shape, n_src: int) -> None:
        self.shape = shape
        self.n_src = n_src
        self._parts: list = []
        self._const: list = []

    def add(self, rows, cols, src, coef) -> None:
        self._parts.append([np.ravel(a) for a in np.broadcast_arrays(rows, cols, src, coef)])

    def constant(self, rows, cols, values) -> None:
        """Entries holding fixed values, whatever the element values."""
        self._const.append([np.ravel(a) for a in np.broadcast_arrays(rows, cols, values)])

    def build(self, rows=(), cols=()) -> sp.csr_matrix:
        """Fix the template (registered positions plus ``(rows, cols)``)."""
        parts = [np.concatenate(c) for c in zip(*self._parts)] or [np.zeros(0)] * 4
        consts = [np.concatenate(c) for c in zip(*self._const)] or [np.zeros(0)] * 3
        rows, cols = (np.ravel(a) for a in np.broadcast_arrays(rows, cols))
        all_rows = np.concatenate([parts[0], consts[0], rows]).astype(np.int64)
        all_cols = np.concatenate([parts[1], consts[1], cols]).astype(np.int64)
        template = sp.csr_matrix(
            (np.ones(all_rows.size), (all_rows, all_cols)), shape=self.shape
        )
        template.sum_duplicates()
        template.data[:] = 0.0
        keys = csr_rows(template).astype(np.int64) * self.shape[1] + template.indices

        def positions(r, c):
            return np.searchsorted(keys, r.astype(np.int64) * self.shape[1] + c.astype(np.int64))

        self._op = sp.csr_matrix(
            (parts[3], (positions(parts[0], parts[1]), parts[2].astype(np.int64))),
            shape=(template.nnz, self.n_src),
        )
        self._fixed = np.zeros((template.nnz, 1))
        self._fixed[positions(consts[0], consts[1]), 0] = consts[2]
        self._has_fixed = bool(consts[2].size)
        self.template = template
        return template

    def __call__(self, values: np.ndarray) -> np.ndarray:
        plane = self._op @ values
        if self._has_fixed:
            plane += self._fixed
        return plane.T


class BatchedOPFModel:
    """Batch-axis element kernels for one case's AC-OPF problem.

    Wraps an :class:`OPFModel` (which contributes the constant case data and
    the rated-branch set) and builds every template and assembly operator
    once.  Element values are computed batch-minor — ``(n, B)`` arrays, so
    the assembly operators read them in place — and the planes come back
    batch-major.  Instances hold no per-evaluation state.  :attr:`plan` is
    the problem's :class:`~repro.mips.batch.LockstepPlan`, built with the
    kernels, so a model reused across solves builds both once.
    """

    def __init__(self, model: OPFModel):
        self.model = model
        case = model.case
        nb, ng = case.n_bus, case.n_gen
        nx = model.idx.nx
        self.idx = model.idx
        self._base = case.base_mva
        self._coeffs = case.gencost.coeffs
        self._gen_on = model.gen_on
        self._nb, self._ng = nb, ng
        self._n_branch = case.n_branch

        # ------------------------------------------------------------ elements
        # Ends of the in-service branches: all from ends, then all to ends.
        live = np.flatnonzero(case.branch.status > 0)
        f, t = (ix[live] for ix in case.branch_bus_indices())
        Yff, Yft, Ytf, Ytt = (y[live] for y in branch_admittances(case))
        self._own = np.concatenate([f, t])
        self._far = np.concatenate([t, f])
        self._end_branch = np.concatenate([live, live])
        self._p = np.conj(np.concatenate([Yff, Ytt]))[:, None]
        self._q = np.conj(np.concatenate([Yft, Ytf]))[:, None]
        n = self._n_end = self._own.size
        ends = np.arange(n)
        # Variable column of each role (Va_own, Va_far, Vm_own, Vm_far) per end.
        role = np.stack([self._own, self._far, nb + self._own, nb + self._far])
        ysh = (case.bus.Gs + 1j * case.bus.Bs) / case.base_mva
        sh = np.flatnonzero(ysh != 0)
        gsh, bsh = ysh.real[sh], ysh.imag[sh]
        pos = np.searchsorted(live, model.limited_branches)
        #: Ends of the rated branches in flow-limit row order (from ends first).
        self.rated_ends = np.concatenate([pos, pos + live.size])
        m = self.rated_ends.size
        lim_rows = np.arange(m)
        self._flow_limit_sq = np.tile(model.flow_limit_sq, 2)[:, None]
        buses = np.arange(nb)
        diag_rows = np.concatenate([buses, buses, nb + buses, nb + buses])
        diag_cols = np.concatenate([buses, nb + buses, buses, nb + buses])

        # ---------------------------------------------------------- constraints
        # Value rows: [Re S | Im S | Re, Im of dS/dδ, dS/da, dS/db (n each)
        # | Vm | Vm² | Pg | Qg]; rows 0..8n are filled by _ends.
        vm, vm2, pq = self._cv_rows = (8 * n, 8 * n + nb, 8 * n + 2 * nb)
        self._n_cv = pq + 2 * ng
        self._g_map = _ElementMap((2 * nb, 1), self._n_cv)
        for part in (0, 1):
            self._g_map.add(part * nb + self._own, 0, part * n + ends, 1.0)
        self._g_map.add(sh, 0, vm2 + sh, gsh)
        self._g_map.add(nb + sh, 0, vm2 + sh, -bsh)
        gbus, on = case.gen_bus_indices(), np.flatnonzero(self._gen_on)
        self._g_map.add(gbus[on], 0, pq + on, -1.0)
        self._g_map.add(nb + gbus[on], 0, pq + ng + on, -1.0)
        self._g_map.build(np.arange(2 * nb), 0)

        self._jg_map = _ElementMap((2 * nb, nx), self._n_cv)
        for k, stencil in enumerate(_FIRST):
            for part in (0, 1):
                for r, sign in stencil:
                    src = (2 + 2 * k + part) * n + ends
                    self._jg_map.add(part * nb + self._own, role[r], src, sign)
        self._jg_map.add(sh, nb + sh, vm + sh, 2.0 * gsh)
        self._jg_map.add(nb + sh, nb + sh, vm + sh, -2.0 * bsh)
        neg_cg = model.neg_Cg_on.tocoo()
        self._jg_map.constant(neg_cg.row, 2 * nb + neg_cg.col, neg_cg.data)
        self._jg_map.constant(nb + neg_cg.row, 2 * nb + ng + neg_cg.col, neg_cg.data)
        #: Pattern of the nonlinear equality-constraint Jacobian.
        self.jg_template = self._jg_map.build(diag_rows, diag_cols)

        # Value rows: d|S|²/d(δ, a, b) of the rated ends.
        self._jh_map = _ElementMap((m, nx), 3 * m)
        for k, stencil in enumerate(_FIRST):
            for r, sign in stencil:
                self._jh_map.add(lim_rows, role[r][self.rated_ends], k * m + lim_rows, sign)
        #: Pattern of the nonlinear inequality-constraint Jacobian.
        self.jh_template = self._jh_map.build()

        # ------------------------------------------------------------ Hessian
        # Value rows: [curvature (5 channels of n) | Gram terms of the rated
        # ends (6 pairs of m) | λP | λQ | cost diagonal].
        gram, lam, cost = 5 * n, 5 * n + 6 * m, 5 * n + 6 * m + 2 * nb
        self._hess_rows = (gram, lam, cost)
        self._hess_map = _ElementMap((nx, nx), cost + ng)
        for c, (pair, coef) in enumerate(_CURVATURE):
            for r, col, sign in _second_stencil(*_PAIRS[pair]):
                self._hess_map.add(role[r], role[col], c * n + ends, coef * sign)
        for c, pair in enumerate(_PAIRS):
            for r, col, sign in _second_stencil(*pair):
                self._hess_map.add(
                    role[r][self.rated_ends], role[col][self.rated_ends], gram + c * m + lim_rows, sign
                )
        self._hess_map.add(nb + sh, nb + sh, lam + sh, 2.0 * gsh)
        self._hess_map.add(nb + sh, nb + sh, lam + nb + sh, -2.0 * bsh)
        gens = np.arange(ng)
        self._hess_map.add(2 * nb + gens, 2 * nb + gens, cost + gens, 1.0)
        dgg = 2 * nb + np.arange(2 * ng)
        #: Pattern of the Lagrangian Hessian.
        self.hess_template = self._hess_map.build(
            np.concatenate([diag_rows, dgg]), np.concatenate([diag_cols, dgg])
        )
        self.plan = LockstepPlan(
            nx, self.jg_template, self.jh_template, self.hess_template, *model.bounds()
        )

    def in_service(self, outages: Sequence[Sequence[int]]) -> Optional[np.ndarray]:
        """Per-row branch-end status for per-scenario branch-outage sets.

        Returns a ``(B, n_ends)`` boolean mask for the ``in_service``
        arguments of :meth:`constraints` / :meth:`hessian`, or ``None`` when
        no row takes an in-service branch out.  Out-of-range indices raise a
        typed :class:`ValueError` rather than aliasing another branch.
        """
        down = np.zeros((len(outages), self._n_branch), dtype=bool)
        for row, branches in enumerate(outages):
            validate_outage_branches(branches, self._n_branch)
            down[row, list(branches)] = True
        on = ~planes.take(down, self._end_branch)
        return None if on.all() else on

    # ------------------------------------------------------------- objective
    def _cost_terms(self, Pg_mw: np.ndarray):
        """Batched Horner evaluation of the polynomial costs and derivatives."""
        coeffs = self._coeffs
        ncost_max = coeffs.shape[1]
        batch = Pg_mw.shape[0]
        # Float exponents mirror repro.opf.costs bit-for-bit.
        powers = np.arange(ncost_max - 1, -1, -1, dtype=float)
        cost = np.zeros((batch, self._ng))
        d1 = np.zeros((batch, self._ng))
        d2 = np.zeros((batch, self._ng))
        for k in range(ncost_max):
            p = powers[k]
            cost = cost * Pg_mw + coeffs[:, k]
            if p >= 1:
                d1 += coeffs[:, k] * p * Pg_mw ** (p - 1)
            if p >= 2:
                d2 += coeffs[:, k] * p * (p - 1) * Pg_mw ** (p - 2)
        return cost, d1, d2

    def objective(self, X: np.ndarray):
        """Batched objective ``(F, dF)`` in optimisation space."""
        base = self._base
        Pg_mw = X[:, self.idx.pg] * base
        cost, d1, _ = self._cost_terms(Pg_mw)
        F = (cost * self._gen_on).sum(axis=1)
        dF = np.zeros((X.shape[0], self.idx.nx))
        dF[:, self.idx.pg] = d1 * self._gen_on * base
        return F, dF

    def objective_hessian_diag(self, X: np.ndarray) -> np.ndarray:
        """Batched diagonal of the objective Hessian over the ``Pg`` block."""
        base = self._base
        _, _, d2 = self._cost_terms(X[:, self.idx.pg] * base)
        return d2 * self._gen_on * base * base

    # -------------------------------------------------------------- elements
    def _ends(self, X: np.ndarray, in_service: Optional[np.ndarray]):
        """End flows and their ``(δ, a, b)`` derivatives, batch-minor.

        Returns ``(cv, (ab, a, b, p, qE))``: ``cv`` is the ``(n_cv, B)``
        constraint value matrix with rows ``0..8n`` holding ``Re S, Im S`` and
        the real and imaginary parts of ``dS/dδ = j·qE·ab``,
        ``dS/da = 2pa + qE·b`` and ``dS/db = qE·a`` (``qE = q·e^{jδ}``); the
        rest is left to the caller.
        """
        nb, n = self._nb, self._n_end
        take = planes.take
        a = take(X, nb + self._own).T
        b = take(X, nb + self._far).T
        U = np.exp(1j * X[:, :nb])
        p, q = self._p, self._q
        if in_service is not None:
            on = in_service.T
            p = np.where(on, p, 0.0)
            q = np.where(on, q, 0.0)
        qE = q * take(U, self._own).T * np.conj(take(U, self._far).T)
        ab = a * b
        T = qE * ab
        pa = p * a
        cv = np.empty((self._n_cv, X.shape[0]))
        S = pa * a + T
        cv[:n] = S.real
        cv[n : 2 * n] = S.imag
        np.negative(T.imag, out=cv[2 * n : 3 * n])
        cv[3 * n : 4 * n] = T.real
        dS = 2.0 * pa + qE * b
        cv[4 * n : 5 * n] = dS.real
        cv[5 * n : 6 * n] = dS.imag
        dS = qE * a
        cv[6 * n : 7 * n] = dS.real
        cv[7 * n : 8 * n] = dS.imag
        return cv, (ab, a, b, p, qE)

    def _rated(self, cv: np.ndarray, block: int) -> np.ndarray:
        """Rows of one ``n``-row block of ``cv`` at the rated ends, ``(m, B)``."""
        n = self._n_end
        return cv[block * n : (block + 1) * n].take(self.rated_ends, axis=0)

    # ----------------------------------------------------------- constraints
    def constraints(
        self,
        X: np.ndarray,
        Pd_pu: np.ndarray,
        Qd_pu: np.ndarray,
        in_service: Optional[np.ndarray] = None,
    ):
        """Batched constraint values and Jacobian data planes.

        ``Pd_pu``/``Qd_pu`` are the per-scenario loads in p.u., one row per
        row of ``X``; ``in_service`` is an optional mask from
        :meth:`in_service`.  Returns ``(G, H, Jg_data, Jh_data)`` with the data
        planes on :attr:`jg_template` / :attr:`jh_template`.
        """
        nb, m = self._nb, self.rated_ends.size
        vm, vm2, pq = self._cv_rows
        batch = X.shape[0]
        cv, _ = self._ends(X, in_service)
        cv[vm:vm2] = X.T[nb : 2 * nb]
        np.square(cv[vm:vm2], out=cv[vm2:pq])
        cv[pq:] = X.T[2 * nb :]
        G = self._g_map(cv) + np.concatenate([Pd_pu, Qd_pu], axis=1)
        Jg_data = self._jg_map(cv)
        if not m:
            return G, np.zeros((batch, 0)), Jg_data, np.zeros((batch, 0))
        u, w = self._rated(cv, 0), self._rated(cv, 1)
        # |S|² as the matrix-form constraints form it (np.abs of the complex flow).
        H = (np.hypot(u, w) ** 2 - self._flow_limit_sq).T
        u2, w2 = 2.0 * u, 2.0 * w
        jv = np.empty((3 * m, batch))
        for k in range(3):
            np.multiply(u2, self._rated(cv, 2 + 2 * k), out=jv[k * m : (k + 1) * m])
            jv[k * m : (k + 1) * m] += w2 * self._rated(cv, 3 + 2 * k)
        return G, H, Jg_data, self._jh_map(jv)

    # --------------------------------------------------------------- Hessian
    def hessian(
        self,
        X: np.ndarray,
        Lam_nl: np.ndarray,
        Mu_nl: np.ndarray,
        in_service: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched Lagrangian-Hessian data planes on :attr:`hess_template`.

        ``Lam_nl`` holds the ``(B, 2·nb)`` power-balance multipliers (real
        rows first) and ``Mu_nl`` the ``(B, 2·n_lim)`` branch-flow multipliers
        (from-end rows first), matching the matrix-form Lagrangian Hessian the
        element-kernel tests compare against (``tests/reference/opf_hessian.py``).
        """
        nb, n, m = self._nb, self._n_end, self.rated_ends.size
        gram, lam, cost = self._hess_rows
        cv, (ab, a, b, p, qE) = self._ends(X, in_service)
        hv = np.empty((self._hess_map.n_src, X.shape[0]))
        hv[lam:cost] = Lam_nl.T
        hv[cost:] = self.objective_hessian_diag(X).T

        kappa = (hv[lam : lam + nb] - 1j * hv[lam + nb : cost]).take(self._own, axis=0)
        mu2 = 2.0 * Mu_nl.T
        # κ = c + 2µ·conj(S) on the rated ends.
        kappa.real[self.rated_ends] += mu2 * self._rated(cv, 0)
        kappa.imag[self.rated_ends] -= mu2 * self._rated(cv, 1)
        kq = kappa * qE
        np.multiply(kq.real, ab, out=hv[:n])
        np.multiply(kq.imag, b, out=hv[n : 2 * n])
        np.multiply(kq.imag, a, out=hv[2 * n : 3 * n])
        hv[3 * n : 4 * n] = (kappa * p).real
        hv[4 * n : 5 * n] = kq.real

        # Gram terms 2µ·(u_x·u_y + w_x·w_y) of the rated ends.
        u = [self._rated(cv, 2 + 2 * k) for k in range(3)]
        w = [self._rated(cv, 3 + 2 * k) for k in range(3)]
        for c, (x, y) in enumerate(_PAIRS):
            out = hv[gram + c * m : gram + (c + 1) * m]
            np.multiply(u[x], u[y], out=out)
            out += w[x] * w[y]
            out *= mu2
        return self._hess_map(hv)


def _warm_component(
    warm_starts: Sequence[Optional[WarmStart]],
    attr: str,
    n: int,
):
    """Stack one warm-start component into a value matrix plus presence mask."""
    batch = len(warm_starts)
    mask = np.zeros(batch, dtype=bool)
    values = np.zeros((batch, n))
    for i, warm in enumerate(warm_starts):
        component = getattr(warm, attr) if warm is not None else None
        if component is None:
            continue
        component = np.asarray(component, dtype=float)
        if component.shape != (n,):
            raise ValueError(
                f"warm start {i}: {attr} has shape {component.shape}, expected ({n},)"
            )
        values[i] = component
        mask[i] = True
    if not mask.any():
        return None, None
    return values, mask


def solve_opf_batch(
    case: Case,
    Pd_mw: np.ndarray,
    Qd_mvar: np.ndarray,
    warm_starts: Optional[Sequence[Optional[WarmStart]]] = None,
    options: Optional[MIPSOptions] = None,
    model: Optional[OPFModel] = None,
    deadline: Optional[object] = None,
    outages: Optional[Sequence[Sequence[int]]] = None,
) -> List[OPFResult]:
    """Solve a batch of scenarios of one case in lockstep.

    ``Pd_mw``/``Qd_mvar`` are ``(B, nb)`` per-scenario loads in MW/MVAr;
    ``warm_starts`` is an optional per-scenario list (``None`` entries mean a
    cold start, and missing components fall back to solver defaults); a
    component of the wrong size raises :class:`ValueError` naming its
    scenario.  Returns one :class:`OPFResult` per scenario, in input order.
    :func:`repro.opf.solver.solve_opf` is the one-row call.  ``options``
    caps the MIPS iterations (MATPOWER's 150 when omitted).  ``model``
    (built from ``case`` when omitted) owns the batched element kernels and
    the lockstep plan, so passing the same model to repeated calls builds
    them once.

    ``outages`` is an optional per-scenario sequence of branch-outage sets
    (indices into ``case.branch``; ``()`` = intact).  Every row keeps the
    intact network's variables, patterns and constraint rows: an outaged
    branch carries zero flow, and an outaged rated branch's two flow-limit
    rows become slack rows, so its ``µ``/``z`` entries come back as
    ``µ ≈ 0``, ``z = Smax²``.  Warm-start ``µ``/``Z`` of a row that takes a
    rated branch out are ignored (solver defaults), since they describe the
    intact flow limits.

    ``deadline`` is an absolute wall deadline on the ``time.monotonic()``
    clock — a scalar shared by every scenario or a ``(B,)`` vector of per-row
    deadlines.  Expired rows retire with ``timed_out`` between iterations
    through the ordinary retirement path, leaving the trajectories of their
    lockstep neighbours bitwise unchanged.
    """
    t0 = time.perf_counter()
    if model is None:
        model = OPFModel(case)
    elif model.case is not case:
        raise ValueError("the supplied model was built for a different case object")
    batched = model.batched
    plan = batched.plan

    Pd_mw = np.atleast_2d(np.asarray(Pd_mw, dtype=float))
    Qd_mvar = np.atleast_2d(np.asarray(Qd_mvar, dtype=float))
    if Pd_mw.shape != Qd_mvar.shape or Pd_mw.shape[1] != case.n_bus:
        raise ValueError("Pd_mw/Qd_mvar must both be (B, n_bus)")
    batch = Pd_mw.shape[0]
    if warm_starts is None:
        warm_starts = [None] * batch
    if len(warm_starts) != batch:
        raise ValueError("warm_starts must have one entry per scenario")
    if outages is not None and len(outages) != batch:
        raise ValueError("outages must have one entry per scenario")
    if batch == 0:
        return []
    in_service = None if outages is None else batched.in_service(outages)
    # µ/Z of a warm start describe the intact flow-limit rows: a row that
    # turns rated branches into slack rows starts µ/Z from solver defaults.
    slack = (
        np.zeros(batch, dtype=bool)
        if in_service is None
        else ~planes.take(in_service, batched.rated_ends).all(axis=1)
    )
    warm_starts = [
        None if w is None
        else (w.masked(use_mu=False, use_z=False) if s else w).clipped_duals()
        for w, s in zip(warm_starts, slack)
    ]

    x_default = model.default_start()
    X0 = np.tile(x_default, (batch, 1))
    for i, warm in enumerate(warm_starts):
        if warm is not None and warm.x is not None:
            x = np.asarray(warm.x, dtype=float)
            if x.shape != x_default.shape:
                raise ValueError(
                    f"warm start {i}: x has shape {x.shape}, expected {x_default.shape}"
                )
            X0[i] = x

    lam0, lam_mask = _warm_component(warm_starts, "lam", plan.partition.n_eq)
    mu0, mu_mask = _warm_component(warm_starts, "mu", plan.partition.n_ineq)
    z0, z_mask = _warm_component(warm_starts, "z", plan.partition.n_ineq)

    Pd_pu = Pd_mw / case.base_mva
    Qd_pu = Qd_mvar / case.base_mva

    def f_fcn(X: np.ndarray, idx: np.ndarray):
        return batched.objective(X)

    def gh_fcn(X: np.ndarray, idx: np.ndarray):
        mask = None if in_service is None else in_service[idx]
        return batched.constraints(X, Pd_pu[idx], Qd_pu[idx], mask)

    def hess_fcn(X, Lam_nl, Mu_nl, idx):
        mask = None if in_service is None else in_service[idx]
        return batched.hessian(X, Lam_nl, Mu_nl, mask)

    preprocess_seconds = (time.perf_counter() - t0) / batch

    mips_results = mips_batch(
        f_fcn,
        X0,
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        plan=plan,
        lam0=lam0,
        mu0=mu0,
        z0=z0,
        lam0_mask=lam_mask,
        mu0_mask=mu_mask,
        z0_mask=z_mask,
        options=options,
        deadline=deadline,
    )
    return [
        build_opf_result(case, model, r, preprocess_seconds, Pd_mw[i], Qd_mvar[i])
        for i, r in enumerate(mips_results)
    ]
