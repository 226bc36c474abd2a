"""MIPS: primal-dual interior-point solver for constrained nonlinear programs.

This is a from-scratch NumPy/SciPy reimplementation of the algorithm behind
MATPOWER's MIPS solver (Wang et al.), the numerical engine the paper
accelerates.  It solves problems of the form::

    min  f(x)
    s.t. g(x)  = 0          (nonlinear equalities)
         h(x) <= 0          (nonlinear inequalities)
         xmin <= x <= xmax  (variable bounds)

by converting the inequalities into equalities with positive slacks ``Z``,
adding a logarithmic barrier with parameter ``gamma`` and applying Newton's
method to the perturbed KKT conditions of the Lagrangian (Eqn. 3 of the
paper).  The solver exposes exactly the warm-start surface the paper exploits:
the primal point ``x``, equality multipliers ``λ``, inequality multipliers
``µ`` and slacks ``Z`` can all be supplied as starting values, and the four
termination conditions are recorded per iteration for the Fig. 10 analysis.

The KKT sparsity pattern is fixed once the constraint structure is known, so
the Newton system is assembled through structure caches
(:class:`repro.utils.sparse.CachedBmat`): block layouts are computed once and
only the numeric ``data`` arrays are refreshed per iteration.  The linear
solve itself is delegated to a pluggable backend
(:mod:`repro.mips.linsolve`) selected via ``MIPSOptions.kkt_solver``, and the
per-phase split (callback evaluation / assembly / factorisation /
back-substitution) is recorded in the iteration history and aggregated in
``MIPSResult.phase_seconds`` for the Fig. 5 runtime breakdown.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.mips.linsolve import KKTSolveError, make_kkt_solver, solver_telemetry
from repro.mips.options import MIPSOptions
from repro.mips.result import ConstraintPartition, IterationRecord, MIPSResult
from repro.utils.logging import get_logger
from repro.utils.sparse import (
    CachedBmat,
    CachedTranspose,
    MatmulPlan,
    _canonical_csr,
    batched_row_sums,
    cached_vstack_csr,
    csr_from_template,
    pattern_union,
    row_scaled_csr,
    same_pattern,
)

LOGGER = get_logger("mips")

#: Objective callback: ``x -> (f, df)`` or ``(f, df, d2f)``.
ObjectiveFn = Callable[[np.ndarray], Tuple]
#: Constraint callback: ``x -> (g, h, Jg, Jh)`` with Jacobians in standard
#: row-per-constraint orientation (``(n_con, n_x)`` sparse matrices).
ConstraintFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, sp.spmatrix, sp.spmatrix]]
#: Lagrangian-Hessian callback: ``(x, lam_nl, mu_nl, cost_mult) -> (n_x, n_x)`` sparse.
HessianFn = Callable[[np.ndarray, np.ndarray, np.ndarray, float], sp.spmatrix]


def _empty_constraints(nx: int) -> Tuple[np.ndarray, np.ndarray, sp.csr_matrix, sp.csr_matrix]:
    zero = np.zeros(0)
    empty = sp.csr_matrix((0, nx))
    return zero, zero, empty, empty


class _BoundHandler:
    """Converts variable bounds into internal equality / inequality rows.

    The bound-derived selector rows are constant, so the stacked Jacobians are
    assembled through structure caches: after the first evaluation only the
    nonlinear blocks' numeric values are copied.
    """

    def __init__(self, nx: int, xmin: np.ndarray, xmax: np.ndarray, eq_tol: float):
        self.nx = nx
        self.xmin = xmin
        self.xmax = xmax
        finite_lo = np.isfinite(xmin)
        finite_hi = np.isfinite(xmax)
        fixed = finite_lo & finite_hi & (np.abs(xmax - xmin) <= eq_tol)
        self.eq_idx = np.flatnonzero(fixed)
        self.ub_idx = np.flatnonzero(finite_hi & ~fixed)
        self.lb_idx = np.flatnonzero(finite_lo & ~fixed)

        def selector(idx: np.ndarray, sign: float) -> sp.csr_matrix:
            m = idx.size
            return sp.csr_matrix(
                (np.full(m, sign), (np.arange(m), idx)), shape=(m, nx)
            )

        self._E_eq = selector(self.eq_idx, 1.0)
        self._E_ub = selector(self.ub_idx, 1.0)
        self._E_lb = selector(self.lb_idx, -1.0)
        self._Jg_cache = CachedBmat("csr")
        self._Jh_cache = CachedBmat("csr")

    @property
    def bound_selectors(self) -> Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """The constant bound-row selector matrices ``(E_eq, E_ub, E_lb)``.

        Shared with the batched KKT assembler, which stacks their (constant)
        data planes under the nonlinear Jacobian blocks once per iteration.
        """
        return self._E_eq, self._E_ub, self._E_lb

    def partition(self, n_eq_nl: int, n_ineq_nl: int) -> ConstraintPartition:
        return ConstraintPartition(
            n_eq_nonlin=n_eq_nl,
            n_ineq_nonlin=n_ineq_nl,
            eq_bound_idx=self.eq_idx.copy(),
            ub_idx=self.ub_idx.copy(),
            lb_idx=self.lb_idx.copy(),
        )

    def assemble(
        self,
        x: np.ndarray,
        g_nl: np.ndarray,
        h_nl: np.ndarray,
        Jg_nl: sp.spmatrix,
        Jh_nl: sp.spmatrix,
    ) -> Tuple[np.ndarray, np.ndarray, sp.csr_matrix, sp.csr_matrix]:
        """Stack nonlinear constraints with the (constant) bound-derived rows."""
        g = np.concatenate([g_nl, x[self.eq_idx] - self.xmin[self.eq_idx]])
        h = np.concatenate(
            [h_nl, x[self.ub_idx] - self.xmax[self.ub_idx], self.xmin[self.lb_idx] - x[self.lb_idx]]
        )
        Jg = cached_vstack_csr(self._Jg_cache, [Jg_nl, self._E_eq])
        Jh = cached_vstack_csr(self._Jh_cache, [Jh_nl, self._E_ub, self._E_lb])
        return g, h, Jg, Jh

    def interior_start(self, x0: np.ndarray) -> np.ndarray:
        """Clip the starting point strictly inside non-degenerate bounds and onto fixed values."""
        x = x0.copy()
        x[self.eq_idx] = self.xmin[self.eq_idx]
        lb, ub = self.lb_idx, self.ub_idx
        x[lb] = np.maximum(x[lb], self.xmin[lb])
        x[ub] = np.minimum(x[ub], self.xmax[ub])
        return x


class _KKTAssembler:
    """Structure-cached assembly of the Newton (KKT) system.

    The reduced system is::

        M = Lxx + Jhᵀ diag(µ/z) Jh
        N = Lx  + Jhᵀ ((µ∘h + γ) / z)
        kkt = [[M, Jgᵀ], [Jg, 0]],  rhs = [-N; -g]

    Transposes, the row scaling of ``Jh``, the ``JhᵀD Jh`` product and the
    final block assembly all reuse their symbolic structure across
    iterations.  The product runs through a fixed-pattern
    :class:`~repro.utils.sparse.MatmulPlan` rather than scipy's ``@``:
    scipy's sparse matmul *prunes* output entries that happen to sum to
    exactly zero (common at cold starts, where many Jacobian values vanish),
    which would make the KKT pattern flip between iterations and silently
    invalidate every downstream symbolic cache — the plan keeps the full
    structural pattern, so the KKT pattern is stable for the life of the
    problem.  The same plan arithmetic evaluates the batched data planes in
    :class:`repro.mips.batch._BatchKKTAssembler` (rows are reduced
    independently), so a scenario's KKT data is the same bits in either.
    """

    def __init__(self) -> None:
        self._kkt_cache = CachedBmat("csc")
        self._JhT = CachedTranspose()
        self._JgT = CachedTranspose()
        self._zinv: Optional[np.ndarray] = None
        self._scale_data: Optional[np.ndarray] = None
        self._matmul: Optional[MatmulPlan] = None
        self._m_template: Optional[sp.csr_matrix] = None
        self._pos_lxx: Optional[np.ndarray] = None
        self._pos_prod: Optional[np.ndarray] = None
        self._plan_patterns: Optional[tuple] = None

    def _product_plan(self, Lxx: sp.csr_matrix, JhT: sp.csr_matrix, Jh: sp.csr_matrix):
        """The (cached) structural product/union plan for the current patterns."""
        cached = self._plan_patterns
        if cached is not None:
            (jht_ptr, jht_idx, lxx_ptr, lxx_idx) = cached
            if same_pattern(JhT, jht_ptr, jht_idx) and same_pattern(Lxx, lxx_ptr, lxx_idx):
                return
        self._matmul = MatmulPlan(JhT, Jh)
        self._m_template, (self._pos_lxx, self._pos_prod) = pattern_union(
            [Lxx, self._matmul.template]
        )
        self._plan_patterns = (JhT.indptr, JhT.indices, Lxx.indptr, Lxx.indices)

    def build(
        self,
        Lxx: sp.spmatrix,
        Jg: sp.csr_matrix,
        Jh: sp.csr_matrix,
        Lx: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        z: np.ndarray,
        mu: np.ndarray,
        gamma: float,
    ) -> Tuple[sp.spmatrix, np.ndarray]:
        neq, niq = g.size, h.size
        if niq:
            if self._zinv is None or self._zinv.size != niq:
                self._zinv = np.empty(niq)
            zinv = np.divide(1.0, z, out=self._zinv)
            JhT = self._JhT.transpose(Jh)
            if self._scale_data is None or self._scale_data.size != Jh.nnz:
                self._scale_data = np.empty(Jh.nnz)
            Jh_scaled = row_scaled_csr(Jh, mu * zinv, out=self._scale_data)
            Lxx = _canonical_csr(Lxx)
            self._product_plan(Lxx, JhT, Jh_scaled)
            prod_data = self._matmul.multiply(
                JhT.data[None, :], Jh_scaled.data[None, :]
            )[0]
            m_data = np.zeros(self._m_template.nnz)
            m_data[self._pos_lxx] += Lxx.data
            m_data[self._pos_prod] += prod_data
            M = csr_from_template(self._m_template, m_data)
            vec = (mu * h + gamma) * zinv
            N = Lx + batched_row_sums(
                JhT.data[None, :] * vec[JhT.indices][None, :], JhT.indptr
            )[0]
        else:
            M = Lxx
            N = Lx.copy()

        if neq:
            JgT = self._JgT.transpose(Jg)
            kkt = self._kkt_cache.assemble([[M, JgT], [Jg, None]])
            rhs = np.concatenate([-N, -g])
        else:
            kkt = sp.csc_matrix(M)
            rhs = -N
        return kkt, rhs


def _conditions(
    f_: float,
    f0_: float,
    g_: np.ndarray,
    h_: np.ndarray,
    Lx_: np.ndarray,
    x_: np.ndarray,
    z_: np.ndarray,
    lam_: np.ndarray,
    mu_: np.ndarray,
) -> Tuple[float, float, float, float]:
    """The four MIPS termination quantities (feasibility, gradient, complementarity, cost)."""
    maxh = float(np.max(h_)) if h_.size else -np.inf
    norm_g = float(np.max(np.abs(g_))) if g_.size else 0.0
    norm_x = float(np.max(np.abs(x_))) if x_.size else 0.0
    norm_z = float(np.max(np.abs(z_))) if z_.size else 0.0
    norm_lam = float(np.max(np.abs(lam_))) if lam_.size else 0.0
    norm_mu = float(np.max(np.abs(mu_))) if mu_.size else 0.0
    feascond = max(norm_g, maxh) / (1.0 + max(norm_x, norm_z))
    gradcond = (float(np.max(np.abs(Lx_))) if Lx_.size else 0.0) / (
        1.0 + max(norm_lam, norm_mu)
    )
    compcond = (float(z_ @ mu_) if z_.size else 0.0) / (1.0 + norm_x)
    costcond = abs(f_ - f0_) / (1.0 + abs(f0_))
    return feascond, gradcond, compcond, costcond


def _is_converged(conds: Sequence[float], opt: MIPSOptions) -> bool:
    """Single convergence test used at entry and per iteration (no duplicated logic)."""
    feascond, gradcond, compcond, costcond = conds
    return bool(
        feascond < opt.feastol
        and gradcond < opt.gradtol
        and compcond < opt.comptol
        and costcond < opt.costtol
    )


def mips(
    f_fcn: ObjectiveFn,
    x0: np.ndarray,
    gh_fcn: Optional[ConstraintFn] = None,
    hess_fcn: Optional[HessianFn] = None,
    xmin: Optional[np.ndarray] = None,
    xmax: Optional[np.ndarray] = None,
    lam0: Optional[np.ndarray] = None,
    mu0: Optional[np.ndarray] = None,
    z0: Optional[np.ndarray] = None,
    options: Optional[MIPSOptions] = None,
    deadline: Optional[float] = None,
) -> MIPSResult:
    """Solve a constrained nonlinear program with the MIPS interior-point method.

    Parameters
    ----------
    f_fcn:
        Objective callback returning ``(f, df)`` (or ``(f, df, d2f)``; the
        Hessian entry is used only when ``hess_fcn`` is omitted, i.e. for
        problems without nonlinear constraints).
    x0:
        Initial primal point.
    gh_fcn:
        Nonlinear constraint callback returning ``(g, h, Jg, Jh)`` where
        ``g(x) = 0`` and ``h(x) <= 0`` and the Jacobians have one row per
        constraint.  ``None`` for bound-only problems.
    hess_fcn:
        Lagrangian Hessian callback ``(x, lam_nl, mu_nl, cost_mult)`` → sparse
        matrix.  Required when ``gh_fcn`` is supplied.
    xmin, xmax:
        Variable bounds (``±inf`` allowed).  Components with
        ``xmin == xmax`` are treated as equality constraints.
    lam0, mu0, z0:
        Optional warm-start values for the equality multipliers, inequality
        multipliers and slacks *in the internal ordering* (nonlinear rows
        first, then bound rows) — this is the interface Smart-PGSim's
        predicted warm-start point feeds.
    options:
        :class:`MIPSOptions`; defaults match MATPOWER.  ``kkt_solver``
        selects the linear-solver backend for the Newton systems.
    deadline:
        Optional absolute wall deadline (``time.monotonic()`` clock).
        Checked cooperatively between iterations; an expired deadline ends
        the solve with ``timed_out=True`` instead of raising, so serving
        requests degrade into structured outcomes.  Composes with the
        relative per-solve budget ``options.max_wall_seconds``.
    """
    opt = options or MIPSOptions()
    opt.validate()

    x0 = np.asarray(x0, dtype=float).copy()
    nx = x0.size
    xmin = np.full(nx, -np.inf) if xmin is None else np.asarray(xmin, dtype=float)
    xmax = np.full(nx, np.inf) if xmax is None else np.asarray(xmax, dtype=float)
    if xmin.shape != (nx,) or xmax.shape != (nx,):
        raise ValueError("xmin/xmax must match the size of x0")
    if np.any(xmin > xmax):
        raise ValueError("xmin > xmax for at least one variable")

    bounds = _BoundHandler(nx, xmin, xmax, opt.bound_eq_tol)
    if gh_fcn is not None and hess_fcn is None:
        raise ValueError("hess_fcn is required when nonlinear constraints are present")

    kkt_solver = make_kkt_solver(
        opt.kkt_solver,
        regularization=opt.kkt_reg,
        max_retries=opt.kkt_max_retries,
    )
    assembler = _KKTAssembler()
    phase = {"eval": 0.0, "assembly": 0.0, "factorization": 0.0, "backsolve": 0.0}

    def eval_objective(x: np.ndarray) -> Tuple[float, np.ndarray, Optional[sp.spmatrix]]:
        out = f_fcn(x)
        if len(out) == 2:
            f, df = out
            d2f = None
        else:
            f, df, d2f = out
        return float(f) * opt.cost_mult, np.asarray(df, dtype=float) * opt.cost_mult, d2f

    def eval_constraints(x: np.ndarray):
        if gh_fcn is None:
            g_nl, h_nl, Jg_nl, Jh_nl = _empty_constraints(nx)
        else:
            g_nl, h_nl, Jg_nl, Jh_nl = gh_fcn(x)
            g_nl = np.asarray(g_nl, dtype=float)
            h_nl = np.asarray(h_nl, dtype=float)
        return bounds.assemble(x, g_nl, h_nl, Jg_nl, Jh_nl), (g_nl.size, h_nl.size)

    start_time = time.perf_counter()
    x = bounds.interior_start(x0)

    t_eval = time.perf_counter()
    (g, h, Jg, Jh), (n_eq_nl, n_ineq_nl) = eval_constraints(x)
    partition = bounds.partition(n_eq_nl, n_ineq_nl)
    neq, niq = g.size, h.size

    f, df, d2f_cached = eval_objective(x)
    entry_eval_seconds = time.perf_counter() - t_eval
    phase["eval"] += entry_eval_seconds

    # ---------------------------------------------------------------- warm start
    gamma = opt.z0
    if lam0 is not None:
        lam = np.asarray(lam0, dtype=float).copy()
        if lam.shape != (neq,):
            raise ValueError(f"lam0 must have length {neq}")
    else:
        lam = np.zeros(neq)

    z = opt.z0 * np.ones(niq)
    below = h < -opt.z0
    z[below] = -h[below]
    if z0 is not None:
        z_ws = np.asarray(z0, dtype=float)
        if z_ws.shape != (niq,):
            raise ValueError(f"z0 must have length {niq}")
        z = np.maximum(z_ws, 1e-10)

    mu = opt.z0 * np.ones(niq)
    big = gamma / np.maximum(z, 1e-300) > opt.z0
    mu[big] = gamma / z[big]
    if mu0 is not None:
        mu_ws = np.asarray(mu0, dtype=float)
        if mu_ws.shape != (niq,):
            raise ValueError(f"mu0 must have length {niq}")
        mu = np.maximum(mu_ws, 1e-10)
    if niq > 0 and (mu0 is not None or z0 is not None):
        gamma = max(opt.sigma * float(z @ mu) / niq, 1e-12)

    def lagrangian_gradient(df_, Jg_, Jh_, lam_, mu_) -> np.ndarray:
        Lx = df_.copy()
        if neq:
            Lx = Lx + Jg_.T @ lam_
        if niq:
            Lx = Lx + Jh_.T @ mu_
        return Lx

    Lx = lagrangian_gradient(df, Jg, Jh, lam, mu)
    f0 = f
    conds = _conditions(f, f0, g, h, Lx, x, z, lam, mu)
    feascond, gradcond, compcond, costcond = conds

    history = []
    converged = _is_converged(conds, opt)
    message = "converged" if converged else ""
    iterations = 0

    if opt.record_history:
        history.append(
            IterationRecord(
                iteration=0,
                step_size=0.0,
                feascond=feascond,
                gradcond=gradcond,
                compcond=compcond,
                costcond=costcond,
                objective=f / opt.cost_mult,
                gamma=gamma,
                alpha_primal=0.0,
                alpha_dual=0.0,
                eval_seconds=entry_eval_seconds,
            )
        )

    timed_out = False

    def _deadline_expired() -> bool:
        if deadline is not None and time.monotonic() >= deadline:
            return True
        if (
            opt.max_wall_seconds is not None
            and time.perf_counter() - start_time >= opt.max_wall_seconds
        ):
            return True
        return False

    while not converged and iterations < opt.max_it:
        # Cooperative wall-budget check, between iterations only: the iterate
        # is always left in a consistent state and the numerical trajectory
        # up to the cut-off is untouched.
        if _deadline_expired():
            timed_out = True
            message = "wall deadline exceeded"
            break
        iterations += 1

        # ------------------------------------------------------ Newton system
        lam_nl = lam[:n_eq_nl]
        mu_nl = mu[:n_ineq_nl]
        t_eval = time.perf_counter()
        if hess_fcn is not None:
            Lxx = hess_fcn(x, lam_nl, mu_nl, opt.cost_mult)
            # The OPF callbacks already return CSR; converting again would
            # copy the whole matrix every iteration for nothing.
            if not sp.isspmatrix_csr(Lxx):
                Lxx = sp.csr_matrix(Lxx)
        elif d2f_cached is not None:
            d2f = d2f_cached if sp.isspmatrix_csr(d2f_cached) else sp.csr_matrix(d2f_cached)
            Lxx = d2f * opt.cost_mult
        else:
            raise ValueError(
                "no Hessian available: provide hess_fcn or a 3-tuple objective"
            )
        eval_seconds = time.perf_counter() - t_eval
        phase["eval"] += eval_seconds

        t_asm = time.perf_counter()
        kkt, rhs = assembler.build(Lxx, Jg, Jh, Lx, g, h, z, mu, gamma)
        assembly_seconds = time.perf_counter() - t_asm
        phase["assembly"] += assembly_seconds

        try:
            sol = kkt_solver.solve(kkt, rhs)
        except KKTSolveError:
            phase["factorization"] += kkt_solver.factor_seconds
            message = "numerically failed (singular KKT system)"
            break
        factor_seconds = kkt_solver.factor_seconds
        backsolve_seconds = kkt_solver.backsolve_seconds
        phase["factorization"] += factor_seconds
        phase["backsolve"] += backsolve_seconds
        if not np.all(np.isfinite(sol)):
            message = "numerically failed (non-finite Newton step)"
            break

        dx = sol[:nx]
        dlam = sol[nx:] if neq else np.zeros(0)
        if float(np.max(np.abs(dx))) > opt.max_stepsize:
            message = "numerically failed (step size exploded)"
            break

        if niq:
            dz = -h - z - Jh @ dx
            dmu = -mu + (gamma - mu * dz) / z
        else:
            dz = np.zeros(0)
            dmu = np.zeros(0)

        # --------------------------------------------------- step lengths
        alphap = 1.0
        if niq:
            neg = dz < 0
            if np.any(neg):
                alphap = min(opt.xi * float(np.min(z[neg] / -dz[neg])), 1.0)
        alphad = 1.0
        if niq:
            neg = dmu < 0
            if np.any(neg):
                alphad = min(opt.xi * float(np.min(mu[neg] / -dmu[neg])), 1.0)

        x = x + alphap * dx
        if niq:
            z = z + alphap * dz
            mu = mu + alphad * dmu
            gamma = opt.sigma * float(z @ mu) / niq
        if neq:
            lam = lam + alphad * dlam

        # ----------------------------------------------------- re-evaluate
        f0 = f
        t_eval = time.perf_counter()
        f, df, d2f_cached = eval_objective(x)
        (g, h, Jg, Jh), _ = eval_constraints(x)
        post_eval_seconds = time.perf_counter() - t_eval
        eval_seconds += post_eval_seconds
        phase["eval"] += post_eval_seconds
        Lx = lagrangian_gradient(df, Jg, Jh, lam, mu)
        conds = _conditions(f, f0, g, h, Lx, x, z, lam, mu)
        feascond, gradcond, compcond, costcond = conds

        if opt.record_history:
            history.append(
                IterationRecord(
                    iteration=iterations,
                    step_size=float(np.max(np.abs(dx))) if dx.size else 0.0,
                    feascond=feascond,
                    gradcond=gradcond,
                    compcond=compcond,
                    costcond=costcond,
                    objective=f / opt.cost_mult,
                    gamma=gamma,
                    alpha_primal=alphap,
                    alpha_dual=alphad,
                    eval_seconds=eval_seconds,
                    assembly_seconds=assembly_seconds,
                    factor_seconds=factor_seconds,
                    backsolve_seconds=backsolve_seconds,
                )
            )
        if opt.verbose:
            LOGGER.info(
                "it %3d  f=%.6e  feas=%.3e grad=%.3e comp=%.3e cost=%.3e",
                iterations,
                f,
                feascond,
                gradcond,
                compcond,
                costcond,
            )

        if _is_converged(conds, opt):
            converged = True
            message = "converged"
            break
        if not np.all(np.isfinite(x)):
            message = "numerically failed (non-finite iterate)"
            break
        if float(np.max(np.abs(x))) > opt.max_stepsize:
            message = "numerically failed (iterate diverged)"
            break

    if not converged and not message:
        message = "iteration limit reached"

    if kkt_solver.regularizations:
        LOGGER.warning(
            "KKT system was singular %d time(s); recovered with diagonal "
            "regularisation (ill-conditioned problem or multiplier start)",
            kkt_solver.regularizations,
        )

    elapsed = time.perf_counter() - start_time
    return MIPSResult(
        x=x,
        f=f / opt.cost_mult,
        converged=converged,
        iterations=iterations,
        lam=lam,
        mu=mu,
        z=z,
        partition=partition,
        message=message,
        history=history,
        elapsed_seconds=elapsed,
        phase_seconds=dict(phase),
        kkt_regularizations=kkt_solver.regularizations,
        kkt_telemetry=solver_telemetry(kkt_solver),
        timed_out=timed_out,
    )
