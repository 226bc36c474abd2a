"""Lockstep batched MIPS: solve B same-structure NLPs at once.

This is the library's one interior-point loop — MATPOWER's MIPS (Wang et
al.), the numerical engine the paper accelerates — for problems of the form::

    min  f(x)
    s.t. g(x)  = 0          (nonlinear equalities)
         h(x) <= 0          (nonlinear inequalities)
         xmin <= x <= xmax  (variable bounds)

The inequalities become equalities with positive slacks ``Z``, a logarithmic
barrier with parameter ``gamma`` is added, and Newton's method is applied to
the perturbed KKT conditions of the Lagrangian (Eqn. 3 of the paper).  The
primal point ``x``, the multipliers ``λ``/``µ`` and the slacks ``Z`` can all
be supplied as starting values — the warm-start surface the paper exploits.
A single problem is the one-row case: :func:`repro.mips.solver.mips` hands
scalar callbacks to this loop at width 1.

Scenario sweeps hand the solver many instances of the *same* problem
structure — one sparsity pattern, different loads, warm starts and (for N-k
screening) branch outages carried as per-row data.  Solving them one at a
time leaves most of the per-iteration time in small-matrix NumPy/SciPy call
overhead.  :func:`mips_batch` instead advances a
whole batch in lockstep: primal/dual state is held as ``(B, ·)`` matrices, the
callback evaluation, constraint stacking, Lagrangian gradient, step-length /
centering and convergence math are vectorised across the batch axis.  So is
the linear algebra: every iteration assembles all active scenarios' KKT
systems at once through plan-based batched kernels
(:class:`_BatchKKTAssembler`) and hands the ``(B, nnz)`` data plane to the
backend selected by ``MIPSOptions.kkt_solver`` in **one**
:meth:`~repro.mips.linsolve.KKTSolver.solve_blocks` call — ``"ldl"``, the
default, refactorises the whole plane over one cached symbolic analysis
(:class:`~repro.mips.ldl.LDLSolver`); ``"factorized"``, the SuperLU reference
of the parity suites, factorises it row by row
(:class:`~repro.mips.linsolve.FactorizedSolver`).  The two agree at solver
precision, and the loop does not know which one it holds.  Everything
derived from the problem structure alone — bound partition, canonical
templates, transpose plans, the assembler — is a :class:`LockstepPlan`,
which callers that solve one structure repeatedly build once.

Scenarios retire individually: a converged (or numerically failed) scenario
drops out of the active set immediately, so stragglers never pay for
finishers.  The converse also holds — a retire-and-refill ``feed``
(:class:`BatchFeedPayload`) can enroll queued scenarios into the freed slots
*between iterations*, turning the initial batch width into a lockstep window
that elastic schedulers keep topped up.  Enrollment runs the exact entry path
of the initial batch, and a backend solves each row of a plane independently
of its neighbours, so a scenario's trajectory is bit-identical no matter when,
or whether, it was fed in.  Each scenario gets its own
:class:`~repro.mips.result.MIPSResult`: its message, iteration history and
the four termination conditions (feasibility, gradient, complementarity,
cost) recorded per iteration for the Fig. 10 analysis.  The parity suites
check the answers against an independent KKT certificate
(:mod:`repro.opf.certificate`) and against frozen answers of the scalar loop
this one replaced (``tests/data/scalar_reference.npz``).

Phase-timing attribution is honest but necessarily shared for the vectorised
phases: batched evaluation, assembly, factorisation and backsolve time are
each split evenly across the scenarios that took part in the iteration.  Each
scenario's ``elapsed_seconds`` is the lockstep wall time until its retirement,
and ``wall_share_seconds`` is its *additive* share of that wall (every
iteration's wall time divided over the scenarios active in it) — the number
that stays comparable with one-scenario solve times.

The batched callbacks exchange Jacobian/Hessian *data planes* — ``(B, nnz)``
arrays on fixed sparsity templates (see :mod:`repro.opf.batch` for the AC-OPF
implementation):

* ``f_fcn(X, idx) -> (F, dF)`` — objective values ``(B,)`` and gradients
  ``(B, nx)``;
* ``gh_fcn(X, idx) -> (G, H, Jg_data, Jh_data)`` — nonlinear constraint
  values and Jacobian data planes on ``jg_template`` / ``jh_template``;
* ``hess_fcn(X, Lam_nl, Mu_nl, cost_mult, idx) -> Hdata`` — Lagrangian
  Hessian data planes on ``hess_template``.

``idx`` carries the original batch positions of the rows of ``X`` so callbacks
can look up per-scenario data (loads, outages) for the shrinking active set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.mips.linsolve import make_kkt_solver, solver_telemetry
from repro.mips.options import MIPSOptions
from repro.mips.result import ConstraintPartition, IterationRecord, MIPSResult
from repro.utils.logging import get_logger
from repro.utils.sparse import (
    CachedBmat,
    MatmulPlan,
    batched_matvec,
    batched_row_sums,
    csr_rows,
    pattern_union,
    transpose_plan,
)

LOGGER = get_logger("mips")

#: Batched objective callback: ``(X, idx) -> (F, dF)``.
BatchedObjectiveFn = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
#: Batched constraint callback: ``(X, idx) -> (G, H, Jg_data, Jh_data)``.
BatchedConstraintFn = Callable[
    [np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]
#: Batched Hessian callback: ``(X, Lam_nl, Mu_nl, cost_mult, idx) -> Hdata``.
BatchedHessianFn = Callable[
    [np.ndarray, np.ndarray, np.ndarray, float, np.ndarray], np.ndarray
]

_PHASES = ("eval", "assembly", "factorization", "backsolve")

#: Newton-step failure messages, in the order the checks apply.
_STEP_FAILURES = (
    "numerically failed (singular KKT system)",
    "numerically failed (non-finite Newton step)",
    "numerically failed (step size exploded)",
)
#: End-of-iteration retirements ``(message, converged)``, in test order.
_RETIREMENTS = (
    ("converged", True),
    ("numerically failed (non-finite iterate)", False),
    ("numerically failed (iterate diverged)", False),
)


@dataclass(frozen=True)
class BatchFeedPayload:
    """Scenarios handed to a running lockstep batch by a retire-and-refill feed.

    ``x0`` holds one primal start per enrolling scenario; the optional warm
    components and masks mirror :func:`mips_batch`'s entry parameters.  Rows
    are enrolled in order, continuing the global row numbering — the ``idx``
    arrays the batched callbacks receive index the *enrollment order*, so the
    per-scenario data the callbacks close over must be laid out the same way.
    """

    x0: np.ndarray
    lam0: Optional[np.ndarray] = None
    mu0: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None
    lam0_mask: Optional[np.ndarray] = None
    mu0_mask: Optional[np.ndarray] = None
    z0_mask: Optional[np.ndarray] = None
    #: Optional per-row absolute wall deadlines (``time.monotonic()`` clock);
    #: ``None`` entries (NaN/inf) mean unbounded.  A row whose deadline
    #: expires retires with ``timed_out`` between iterations, exactly like a
    #: convergence retirement — its lockstep neighbours are not perturbed.
    deadline: Optional[np.ndarray] = None


#: Retire-and-refill hook: called with the number of free lockstep slots,
#: returns the next scenarios to enroll (at most that many rows) or ``None``
#: when the queue is exhausted.
BatchFeedFn = Callable[[int], Optional[BatchFeedPayload]]


def _canonical_template(template: Optional[sp.spmatrix], nx: int) -> sp.csr_matrix:
    if template is None:
        return sp.csr_matrix((0, nx))
    t = sp.csr_matrix(template).tocsr()
    t.sort_indices()
    return t


def _warm_rows(
    values: Optional[np.ndarray], mask: Optional[np.ndarray], batch: int, n: int, name: str
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Validate a warm-start value matrix and its per-scenario presence mask."""
    if values is None:
        return None, np.zeros(batch, dtype=bool)
    values = np.asarray(values, dtype=float)
    if values.shape != (batch, n):
        raise ValueError(f"{name} must have shape ({batch}, {n})")
    if mask is None:
        mask = np.ones(batch, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch,):
            raise ValueError(f"{name} mask must have shape ({batch},)")
    return values, mask


def _selector(idx: np.ndarray, sign: float, nx: int) -> sp.csr_matrix:
    """Constant bound rows: row ``i`` is ``sign`` times unit vector ``idx[i]``."""
    m = idx.size
    return sp.csr_matrix((np.full(m, sign), (np.arange(m), idx)), shape=(m, nx))


class _BatchKKTAssembler:
    """Batched assembly of all active scenarios' KKT systems.

    The reduced Newton system is::

        M = Lxx + Jhᵀ diag(µ/z) Jh
        N = Lx  + Jhᵀ ((µ∘h + γ) / z)
        kkt = [[M, Jgᵀ], [Jg, 0]],  rhs = [-N; -g]

    Every sparsity pattern entering it — the stacked constraint Jacobians
    (nonlinear blocks over the constant bound-selector rows), their
    transposes, the structural ``JhᵀD Jh`` product and the final
    ``[[M, Jgᵀ], [Jg, 0]]`` layout — is fixed for the whole batch solve, so
    the symbolic work is expanded once into gather/reduce plans
    (:class:`~repro.utils.sparse.MatmulPlan`,
    :func:`~repro.utils.sparse.transpose_plan`,
    :meth:`~repro.utils.sparse.CachedBmat.assemble_batch`) and each iteration
    replays them as pure NumPy operations over ``(B, nnz)`` data planes.  The
    product keeps its full structural pattern (no pruning of entries that
    sum to zero), so the KKT pattern is stable for the life of the problem.

    Every replayed operation reduces each plane row independently, so a row
    of the produced plane is **bit-identical** whatever the batch around it —
    ready for :meth:`~repro.mips.linsolve.KKTSolver.solve_blocks`.
    """

    def __init__(
        self,
        jg_t: sp.csr_matrix,
        jh_t: sp.csr_matrix,
        hess_t: sp.csr_matrix,
        selectors: Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix],
    ) -> None:
        E_eq, E_ub, E_lb = selectors
        nx = hess_t.shape[0]
        self._nx = nx

        self._jg_cache = CachedBmat("csr")
        jg_stack = self._jg_cache.assemble([[jg_t], [E_eq]])
        self._jh_cache = CachedBmat("csr")
        jh_stack = self._jh_cache.assemble([[jh_t], [E_ub], [E_lb]])
        self._eq_data = E_eq.data
        self._ub_data = E_ub.data
        self._lb_data = E_lb.data
        self.neq = jg_stack.shape[0]
        self.niq = jh_stack.shape[0]

        if self.niq:
            self._jh_rows = csr_rows(jh_stack)
            order, t_indptr, t_indices = transpose_plan(jh_stack)
            self._jhT_order = order
            self._jhT_indptr = t_indptr
            self._jhT_indices = t_indices
            jhT = sp.csr_matrix(
                (np.zeros(jh_stack.nnz), t_indices, t_indptr), shape=(nx, self.niq)
            )
            jhT.has_canonical_format = True
            self._matmul = MatmulPlan(jhT, jh_stack)
            m_template, (self._pos_hess, self._pos_prod) = pattern_union(
                [hess_t, self._matmul.template]
            )
        else:
            m_template = hess_t
            self._pos_hess = self._pos_prod = None

        self._m_nnz = m_template.nnz
        self._kkt_cache = CachedBmat("csc")
        if self.neq:
            order, _, _ = transpose_plan(jg_stack)
            self._jgT_order = order
            jgT = sp.csr_matrix(jg_stack.T)
            jgT.sort_indices()
            jgT.data = np.zeros(jgT.nnz)
            self._kkt_cache.assemble([[m_template, jgT], [jg_stack, None]])
        else:
            self._kkt_cache.assemble([[m_template]])
        #: Canonical CSC pattern of one scenario's KKT system (read-only).
        self.kkt_template = self._kkt_cache.template

    def build(
        self,
        Hdata: np.ndarray,
        Jg_data: np.ndarray,
        Jh_data: np.ndarray,
        Lx: np.ndarray,
        G: np.ndarray,
        H: np.ndarray,
        Z: np.ndarray,
        Mu: np.ndarray,
        Gamma: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """KKT data planes and right-hand sides for the active scenarios.

        All inputs are ``(B, ·)`` slices over the active set; returns
        ``(kkt_plane, rhs_plane)`` with ``kkt_plane`` in
        :attr:`kkt_template`'s storage order.
        """
        Hdata = np.atleast_2d(np.asarray(Hdata, dtype=float))
        batch = Hdata.shape[0]
        if self.niq:
            jh_plane = self._jh_cache.assemble_batch(
                [
                    Jh_data,
                    np.broadcast_to(self._ub_data, (batch, self._ub_data.size)),
                    np.broadcast_to(self._lb_data, (batch, self._lb_data.size)),
                ]
            )
            zinv = 1.0 / Z
            jh_scaled = jh_plane * (Mu * zinv)[:, self._jh_rows]
            jhT_plane = jh_plane[:, self._jhT_order]
            prod = self._matmul.multiply(jhT_plane, jh_scaled)
            m_plane = np.zeros((batch, self._m_nnz))
            m_plane[:, self._pos_hess] += Hdata
            m_plane[:, self._pos_prod] += prod
            vec = (Mu * H + Gamma[:, None]) * zinv
            N = Lx + batched_matvec(jhT_plane, self._jhT_indptr, self._jhT_indices, vec)
        else:
            m_plane = Hdata
            N = Lx.copy()

        if self.neq:
            jg_plane = self._jg_cache.assemble_batch(
                [Jg_data, np.broadcast_to(self._eq_data, (batch, self._eq_data.size))]
            )
            kkt_plane = self._kkt_cache.assemble_batch(
                [m_plane, jg_plane[:, self._jgT_order], jg_plane]
            )
            rhs_plane = np.concatenate([-N, -G], axis=1)
        else:
            kkt_plane = self._kkt_cache.assemble_batch([m_plane])
            rhs_plane = -N
        return kkt_plane, rhs_plane


class LockstepPlan:
    """The structure-only setup of a lockstep solve, built once and reused.

    Everything :func:`mips_batch` derives from the sparsity templates and the
    variable bounds alone — the bound partition, the canonical templates, the
    transpose plans of the nonlinear Jacobians and the batched KKT assembler.
    Callers that solve many batches of one problem structure (the AC-OPF
    model of a case) build it once and hand it to every call; the plan holds
    no per-solve state.

    Bounds become constraint rows: a variable with ``|xmax − xmin| ≤
    bound_eq_tol`` is an equality row (``eq_idx``), every other finite upper
    or lower bound an inequality row (``ub_idx`` / ``lb_idx``), stacked
    after the nonlinear rows as :attr:`partition` describes.
    """

    def __init__(
        self,
        nx: int,
        jg_template: Optional[sp.spmatrix],
        jh_template: Optional[sp.spmatrix],
        hess_template: sp.spmatrix,
        xmin: Optional[np.ndarray] = None,
        xmax: Optional[np.ndarray] = None,
        bound_eq_tol: float = MIPSOptions.bound_eq_tol,
    ) -> None:
        xmin = np.full(nx, -np.inf) if xmin is None else np.asarray(xmin, dtype=float)
        xmax = np.full(nx, np.inf) if xmax is None else np.asarray(xmax, dtype=float)
        if xmin.shape != (nx,) or xmax.shape != (nx,):
            raise ValueError("xmin/xmax must match the width of x0")
        if np.any(xmin > xmax):
            raise ValueError("xmin > xmax for at least one variable")
        self.nx = nx
        self.xmin, self.xmax = xmin, xmax
        self.bound_eq_tol = bound_eq_tol
        lo, hi = np.isfinite(xmin), np.isfinite(xmax)
        fixed = lo & hi & (np.abs(xmax - xmin) <= bound_eq_tol)
        self.eq_idx = np.flatnonzero(fixed)
        self.ub_idx = np.flatnonzero(hi & ~fixed)
        self.lb_idx = np.flatnonzero(lo & ~fixed)
        self.jg_t = _canonical_template(jg_template, nx)
        self.jh_t = _canonical_template(jh_template, nx)
        self.hess_t = _canonical_template(hess_template, nx)
        self.partition = ConstraintPartition(
            n_eq_nonlin=self.jg_t.shape[0],
            n_ineq_nonlin=self.jh_t.shape[0],
            eq_bound_idx=self.eq_idx,
            ub_idx=self.ub_idx,
            lb_idx=self.lb_idx,
        )
        self.jgT = transpose_plan(self.jg_t)
        self.jhT = transpose_plan(self.jh_t)
        selectors = (
            _selector(self.eq_idx, 1.0, nx),
            _selector(self.ub_idx, 1.0, nx),
            _selector(self.lb_idx, -1.0, nx),
        )
        self.assembler = _BatchKKTAssembler(self.jg_t, self.jh_t, self.hess_t, selectors)


def mips_batch(
    f_fcn: BatchedObjectiveFn,
    x0: np.ndarray,
    gh_fcn: Optional[BatchedConstraintFn] = None,
    hess_fcn: Optional[BatchedHessianFn] = None,
    *,
    jg_template: Optional[sp.spmatrix] = None,
    jh_template: Optional[sp.spmatrix] = None,
    hess_template: Optional[sp.spmatrix] = None,
    xmin: Optional[np.ndarray] = None,
    xmax: Optional[np.ndarray] = None,
    plan: Optional[LockstepPlan] = None,
    lam0: Optional[np.ndarray] = None,
    mu0: Optional[np.ndarray] = None,
    z0: Optional[np.ndarray] = None,
    lam0_mask: Optional[np.ndarray] = None,
    mu0_mask: Optional[np.ndarray] = None,
    z0_mask: Optional[np.ndarray] = None,
    options: Optional[MIPSOptions] = None,
    feed: Optional[BatchFeedFn] = None,
    feed_capacity: Optional[int] = None,
    deadline: Optional[object] = None,
) -> List[MIPSResult]:
    """Solve ``B`` same-structure NLPs in lockstep; one result per scenario.

    Parameters are :func:`repro.mips.solver.mips`'s lifted to a batch axis:
    ``x0`` is ``(B, nx)``, bounds are shared (same structure implies the same
    bound vectors), warm starts are ``(B, ·)`` matrices whose rows apply only
    where the corresponding ``*_mask`` entry is True (all rows when the mask
    is omitted).  ``jg_template`` / ``jh_template`` / ``hess_template`` carry
    the fixed sparsity patterns of the nonlinear-constraint Jacobians and the
    Lagrangian Hessian whose data planes the callbacks produce.  ``plan`` —
    a :class:`LockstepPlan` built from those templates and bounds — replaces
    all five arguments for callers that solve the same structure repeatedly.

    **Retire-and-refill.**  When ``feed`` is given, the width of ``x0``'s
    batch becomes a lockstep *window*: every time scenarios retire (converge
    or fail), the feed is asked for replacements, which are enrolled between
    iterations and run through exactly the entry path the initial batch took
    — same warm-start initialisation, same entry evaluation — so a scenario's
    trajectory is bit-identical no matter when (or whether) it was fed in.
    ``feed_capacity`` (required with ``feed``) bounds the total number of
    scenarios the call may enroll; per-scenario iteration counts, histories
    and wall shares are kept relative to each scenario's own enrollment.

    **Deadlines.**  ``deadline`` is an absolute wall deadline on the
    ``time.monotonic()`` clock — a scalar applying to every initial-batch row
    or a ``(B,)`` vector of per-row deadlines (fed scenarios carry theirs in
    :attr:`BatchFeedPayload.deadline`); ``options.max_wall_seconds`` is the
    *relative* per-scenario budget measured from each row's own enrollment.
    Both are checked cooperatively between iterations, and an expired row
    retires with ``timed_out`` set through exactly the retirement path a
    converged row takes — its lockstep neighbours are bitwise unperturbed.

    Returns a list of per-scenario :class:`MIPSResult` in enrollment order
    (batch order, then fed scenarios in feed order).
    """
    opt = options or MIPSOptions()
    opt.validate()

    X0 = np.array(x0, dtype=float)
    if X0.ndim != 2:
        raise ValueError("x0 must be a (B, nx) matrix")
    batch, nx = X0.shape
    if batch == 0:
        if feed is not None:
            raise ValueError("the initial batch must be non-empty when a feed is given")
        return []
    if feed is None:
        capacity = batch
    else:
        if feed_capacity is None:
            raise ValueError("feed_capacity is required when a feed is given")
        capacity = int(feed_capacity)
        if capacity < batch:
            raise ValueError("feed_capacity must cover the initial batch")
    if hess_fcn is None or (plan is None and hess_template is None):
        raise ValueError("mips_batch requires hess_fcn and hess_template")
    if plan is None:
        if gh_fcn is not None and (jg_template is None or jh_template is None):
            raise ValueError("jg_template/jh_template are required with gh_fcn")
        plan = LockstepPlan(
            nx, jg_template, jh_template, hess_template, xmin, xmax, opt.bound_eq_tol
        )
    elif any(a is not None for a in (jg_template, jh_template, hess_template, xmin, xmax)):
        raise ValueError("pass either a plan or the templates and bounds, not both")
    elif plan.nx != nx or plan.bound_eq_tol != opt.bound_eq_tol:
        raise ValueError("the plan was built for a different width or bound_eq_tol")
    if deadline is None:
        entry_deadline = None
    else:
        entry_deadline = np.asarray(deadline, dtype=float)
        if entry_deadline.ndim == 0:
            entry_deadline = np.full(batch, float(entry_deadline))
        elif entry_deadline.shape != (batch,):
            raise ValueError("deadline must be a scalar or a (B,) vector")

    xmin, xmax = plan.xmin, plan.xmax
    eq_idx, ub_idx, lb_idx = plan.eq_idx, plan.ub_idx, plan.lb_idx
    nub = ub_idx.size
    jg_t, jh_t = plan.jg_t, plan.jh_t
    n_eq_nl, n_ineq_nl = jg_t.shape[0], jh_t.shape[0]
    partition = plan.partition
    neq, niq = partition.n_eq, partition.n_ineq
    jgT_order, jgT_indptr, jgT_indices = plan.jgT
    jhT_order, jhT_indptr, jhT_indices = plan.jhT
    assembler = plan.assembler

    kkt_solver = make_kkt_solver(
        opt.kkt_solver,
        regularization=opt.kkt_reg,
        max_retries=opt.kkt_max_retries,
    )

    # ------------------------------------------------------------- batch state
    # Arrays are sized for every scenario the call may ever hold (just the
    # initial batch without a feed); ``n_enrolled`` is the high-water mark,
    # ``active`` masks the scenarios currently marching, and the initial batch
    # width doubles as the lockstep *window* the feed refills.
    width = batch
    X = np.zeros((capacity, nx))
    F = np.zeros(capacity)
    dF = np.zeros((capacity, nx))
    G = np.zeros((capacity, neq))
    H = np.zeros((capacity, niq))
    Jg_data = np.zeros((capacity, jg_t.nnz))
    Jh_data = np.zeros((capacity, jh_t.nnz))
    Lx = np.zeros((capacity, nx))
    lam = np.zeros((capacity, neq))
    mu = np.zeros((capacity, niq))
    z = np.zeros((capacity, niq))
    gamma = np.full(capacity, opt.z0)
    conds = np.zeros((capacity, 4))
    tols = np.array([opt.feastol, opt.gradtol, opt.comptol, opt.costtol])

    iterations = np.zeros(capacity, dtype=int)
    phase = {name: np.zeros(capacity) for name in _PHASES}
    histories: List[List[IterationRecord]] = [[] for _ in range(capacity)]
    results: List[Optional[MIPSResult]] = [None] * capacity
    active = np.zeros(capacity, dtype=bool)
    #: Accepted singular-KKT recoveries per scenario.
    reg_counts = np.zeros(capacity, dtype=int)
    #: Additive wall share per scenario: every iteration's wall time is split
    #: evenly over the scenarios active in it, so shares sum to the lockstep
    #: wall and stay comparable with one-scenario solve times.
    share = np.zeros(capacity)
    #: Completed lockstep iterations at each scenario's enrollment: iteration
    #: counts, history numbering and the per-scenario iteration limit are all
    #: relative to it, so a fed scenario behaves as if it started fresh.
    start_it = np.zeros(capacity, dtype=int)
    #: Wall clock at each scenario's enrollment (its ``elapsed_seconds`` zero).
    enroll_clock = np.zeros(capacity)
    #: Per-row absolute wall deadline (``time.monotonic()`` clock; +inf = none).
    row_deadline = np.full(capacity, np.inf)
    n_enrolled = 0
    it = 0

    def evaluate(idx: np.ndarray) -> float:
        """Evaluate objective + constraints for rows ``idx``; returns wall time."""
        t0 = time.perf_counter()
        Xa = X[idx]
        f_raw, df_raw = f_fcn(Xa, idx)
        F[idx] = np.asarray(f_raw, dtype=float) * opt.cost_mult
        dF[idx] = np.asarray(df_raw, dtype=float) * opt.cost_mult
        if gh_fcn is not None:
            g_nl, h_nl, jgd, jhd = gh_fcn(Xa, idx)
            g_nl = np.asarray(g_nl, dtype=float)
            h_nl = np.asarray(h_nl, dtype=float)
        else:
            g_nl = np.zeros((idx.size, 0))
            h_nl = np.zeros((idx.size, 0))
            jgd = np.zeros((idx.size, 0))
            jhd = np.zeros((idx.size, 0))
        G[idx] = np.concatenate([g_nl, Xa[:, eq_idx] - xmin[eq_idx]], axis=1)
        H[idx] = np.concatenate(
            [h_nl, Xa[:, ub_idx] - xmax[ub_idx], xmin[lb_idx] - Xa[:, lb_idx]], axis=1
        )
        Jg_data[idx] = jgd
        Jh_data[idx] = jhd
        return time.perf_counter() - t0

    def lagrangian_gradient(idx: np.ndarray) -> None:
        Lxa = dF[idx].copy()
        lam_a = lam[idx]
        mu_a = mu[idx]
        if n_eq_nl:
            td = Jg_data[idx][:, jgT_order]
            Lxa += batched_row_sums(td * lam_a[:, :n_eq_nl][:, jgT_indices], jgT_indptr)
        if eq_idx.size:
            Lxa[:, eq_idx] += lam_a[:, n_eq_nl:]
        if n_ineq_nl:
            td = Jh_data[idx][:, jhT_order]
            Lxa += batched_row_sums(td * mu_a[:, :n_ineq_nl][:, jhT_indices], jhT_indptr)
        if nub:
            Lxa[:, ub_idx] += mu_a[:, n_ineq_nl : n_ineq_nl + nub]
        if lb_idx.size:
            Lxa[:, lb_idx] -= mu_a[:, n_ineq_nl + nub :]
        Lx[idx] = Lxa

    def conditions(idx: np.ndarray, F0a: np.ndarray) -> None:
        """The four MIPS termination quantities (feasibility, gradient,
        complementarity, cost) of rows ``idx``."""
        na = idx.size
        zeros = np.zeros(na)
        maxh = H[idx].max(axis=1) if niq else np.full(na, -np.inf)
        norm_g = np.abs(G[idx]).max(axis=1) if neq else zeros
        norm_x = np.abs(X[idx]).max(axis=1)
        norm_z = np.abs(z[idx]).max(axis=1) if niq else zeros
        norm_lam = np.abs(lam[idx]).max(axis=1) if neq else zeros
        norm_mu = np.abs(mu[idx]).max(axis=1) if niq else zeros
        feas = np.maximum(norm_g, maxh) / (1.0 + np.maximum(norm_x, norm_z))
        grad = np.abs(Lx[idx]).max(axis=1) / (1.0 + np.maximum(norm_lam, norm_mu))
        comp = (np.einsum("ij,ij->i", z[idx], mu[idx]) if niq else zeros) / (
            1.0 + norm_x
        )
        cost = np.abs(F[idx] - F0a) / (1.0 + np.abs(F0a))
        conds[idx] = np.stack([feas, grad, comp, cost], axis=1)

    def finalize(b: int, message: str, converged: bool, timed_out: bool = False) -> None:
        active[b] = False
        if reg_counts[b]:
            LOGGER.warning(
                "scenario %d: KKT system was singular %d time(s); recovered with "
                "diagonal regularisation",
                b,
                reg_counts[b],
            )
        results[b] = MIPSResult(
            x=X[b].copy(),
            f=F[b] / opt.cost_mult,
            converged=converged,
            iterations=int(iterations[b]),
            lam=lam[b].copy(),
            mu=mu[b].copy(),
            z=z[b].copy(),
            partition=partition,
            message=message,
            history=histories[b],
            elapsed_seconds=time.perf_counter() - enroll_clock[b],
            phase_seconds={name: float(phase[name][b]) for name in _PHASES},
            kkt_regularizations=int(reg_counts[b]),
            # One solver serves the whole batch, so the counters are
            # batch-level aggregates snapshotted at this row's retirement.
            kkt_telemetry=solver_telemetry(kkt_solver),
            timed_out=timed_out,
            wall_share_seconds=float(share[b]),
        )

    def enroll(payload: BatchFeedPayload) -> np.ndarray:
        """Enter scenarios into the lockstep batch (initial batch and feed).

        One code path for both means a fed scenario takes bit-for-bit the
        entry route a standalone batch member takes: primal clamp into
        bounds, entry evaluation, warm-start dual initialisation, entry
        conditions (and immediate retirement when already converged).
        """
        nonlocal n_enrolled
        t0 = time.perf_counter()
        xb = np.atleast_2d(np.array(payload.x0, dtype=float))
        if xb.ndim != 2 or xb.shape[1] != nx:
            raise ValueError("fed x0 rows must form a (k, nx) matrix")
        k = xb.shape[0]
        if k == 0:
            raise ValueError("a feed payload must enroll at least one scenario")
        if n_enrolled + k > capacity:
            raise ValueError("feed enrolled more scenarios than feed_capacity")
        new = np.arange(n_enrolled, n_enrolled + k)
        n_enrolled += k
        enroll_clock[new] = t0
        start_it[new] = it
        if payload.deadline is not None:
            dl = np.asarray(payload.deadline, dtype=float)
            if dl.shape != (k,):
                raise ValueError("fed deadline must have one entry per enrolled row")
            row_deadline[new] = np.where(np.isnan(dl), np.inf, dl)
        active[new] = True

        xb[:, eq_idx] = xmin[eq_idx]
        if lb_idx.size:
            xb[:, lb_idx] = np.maximum(xb[:, lb_idx], xmin[lb_idx])
        if ub_idx.size:
            xb[:, ub_idx] = np.minimum(xb[:, ub_idx], xmax[ub_idx])
        X[new] = xb

        entry_dt = evaluate(new)
        phase["eval"][new] += entry_dt / k

        lam0v, lam_m = _warm_rows(payload.lam0, payload.lam0_mask, k, neq, "lam0")
        mu0v, mu_m = _warm_rows(payload.mu0, payload.mu0_mask, k, niq, "mu0")
        z0v, z_m = _warm_rows(payload.z0, payload.z0_mask, k, niq, "z0")
        if lam0v is not None and np.any(lam_m):
            lam[new[lam_m]] = lam0v[lam_m]
        if niq:
            Hn = H[new]
            zn = np.full((k, niq), opt.z0)
            below = Hn < -opt.z0
            zn[below] = -Hn[below]
            if z0v is not None and np.any(z_m):
                zn[z_m] = np.maximum(z0v[z_m], 1e-10)
            gn = np.full(k, opt.z0)
            mun = np.full((k, niq), opt.z0)
            big = gn[:, None] / np.maximum(zn, 1e-300) > opt.z0
            mun[big] = np.broadcast_to(gn[:, None], zn.shape)[big] / zn[big]
            if mu0v is not None and np.any(mu_m):
                mun[mu_m] = np.maximum(mu0v[mu_m], 1e-10)
            warm = mu_m | z_m
            if np.any(warm):
                gn[warm] = np.maximum(
                    opt.sigma * np.einsum("ij,ij->i", zn[warm], mun[warm]) / niq, 1e-12
                )
            z[new] = zn
            mu[new] = mun
            gamma[new] = gn

        lagrangian_gradient(new)
        conditions(new, F[new])

        if opt.record_history:
            entry_share = entry_dt / k
            for b in new:
                histories[b].append(
                    IterationRecord(
                        iteration=0,
                        step_size=0.0,
                        feascond=conds[b, 0],
                        gradcond=conds[b, 1],
                        compcond=conds[b, 2],
                        costcond=conds[b, 3],
                        objective=F[b] / opt.cost_mult,
                        gamma=gamma[b],
                        alpha_primal=0.0,
                        alpha_dual=0.0,
                        eval_seconds=entry_share,
                    )
                )

        share[new] += (time.perf_counter() - t0) / k
        for b in new[(conds[new] < tols).all(axis=1)]:
            finalize(int(b), "converged", True)
        return new

    # ----------------------------------------------------------------- entry
    enroll(
        BatchFeedPayload(
            x0=X0,
            lam0=lam0,
            mu0=mu0,
            z0=z0,
            lam0_mask=lam0_mask,
            mu0_mask=mu0_mask,
            z0_mask=z0_mask,
            deadline=entry_deadline,
        )
    )
    feed_drained = feed is None

    # Per-iteration scratch, allocated once: rows are (re)assigned before any
    # read within the iteration that uses them (survivors only), so no
    # clearing between iterations is needed.
    it_eval = np.zeros(capacity)
    it_asm = np.zeros(capacity)
    it_fac = np.zeros(capacity)
    it_back = np.zeros(capacity)

    # ------------------------------------------------------------------ loop
    while True:
        # Retire-and-refill: top the active set back up to the lockstep
        # window from the feed before the next iteration marches.
        if not feed_drained:
            free = width - int(np.count_nonzero(active))
            while free > 0:
                payload = feed(free)
                if payload is None:
                    feed_drained = True
                    break
                if np.atleast_2d(np.asarray(payload.x0)).shape[0] > free:
                    raise ValueError(
                        "feed returned more scenarios than the requested free slots"
                    )
                enroll(payload)
                free = width - int(np.count_nonzero(active))
        # Cooperative wall-deadline / per-row-budget check.  An expired row
        # retires through exactly the retirement path a converged row takes —
        # its state is simply dropped from the active set — so the lockstep
        # trajectories of its neighbours are bitwise unperturbed.
        rows = np.flatnonzero(active)
        if rows.size and (
            opt.max_wall_seconds is not None or bool((row_deadline[rows] < np.inf).any())
        ):
            expired = row_deadline[rows] <= time.monotonic()
            if opt.max_wall_seconds is not None:
                expired |= time.perf_counter() - enroll_clock[rows] >= opt.max_wall_seconds
            for b in rows[expired]:
                finalize(int(b), "wall deadline exceeded", False, timed_out=True)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            if not feed_drained:
                # Deadline retirements just freed the whole window; go refill
                # before concluding the queue is empty.
                continue
            break
        it += 1
        iterations[idx] = it - start_it[idx]
        na = idx.size
        t_iter = time.perf_counter()
        #: Failures detected during this iteration; finalised after the wall
        #: share of the iteration has been credited to every active scenario.
        pending: List[Tuple[int, str]] = []

        def close_iteration() -> None:
            share[idx] += (time.perf_counter() - t_iter) / na
            for b, msg in pending:
                finalize(b, msg, False)

        # ------------------------------------------------- batched Hessian eval
        t0 = time.perf_counter()
        Hdata = np.atleast_2d(
            np.asarray(
                hess_fcn(
                    X[idx], lam[idx][:, :n_eq_nl], mu[idx][:, :n_ineq_nl], opt.cost_mult, idx
                )
            )
        )
        hess_dt = time.perf_counter() - t0
        phase["eval"][idx] += hess_dt / na
        it_eval[idx] = hess_dt / na

        # ------------------- batched assembly, then one solve for the active set
        # The shared phases are split evenly across the active set, like the
        # batched evaluation phases.
        t0 = time.perf_counter()
        kkt_plane, rhs_plane = assembler.build(
            Hdata, Jg_data[idx], Jh_data[idx], Lx[idx], G[idx], H[idx],
            z[idx], mu[idx], gamma[idx],
        )
        asm_dt = (time.perf_counter() - t0) / na
        phase["assembly"][idx] += asm_dt
        it_asm[idx] = asm_dt

        report = kkt_solver.solve_blocks(assembler.kkt_template, kkt_plane, rhs_plane)
        fac_dt = kkt_solver.factor_seconds / na
        back_dt = kkt_solver.backsolve_seconds / na
        phase["factorization"][idx] += fac_dt
        phase["backsolve"][idx] += back_dt
        it_fac[idx] = fac_dt
        it_back[idx] = back_dt
        reg_counts[idx] += report.regularizations

        # Newton-step sanity checks as row masks: a failing row is classified
        # by the first check it fails (1-based index into _STEP_FAILURES).
        sol = report.solutions
        singular = np.zeros(na, dtype=bool)
        singular[report.failed] = True
        check = np.select(
            [
                singular,
                ~np.isfinite(sol).all(axis=1),
                np.abs(sol[:, :nx]).max(axis=1) > opt.max_stepsize,
            ],
            [1, 2, 3],
            0,
        )
        for p in np.flatnonzero(check):
            pending.append((int(idx[p]), _STEP_FAILURES[check[p] - 1]))
        ok = check == 0
        if not ok.any():
            close_iteration()
            continue
        s = idx[ok]
        DXs = sol[ok, :nx]
        Dlams = sol[ok, nx:]

        # ------------------------------------------ batched step-length update
        if niq:
            Jh_dx = np.zeros((s.size, niq))
            if n_ineq_nl:
                Jh_dx[:, :n_ineq_nl] = batched_matvec(
                    Jh_data[s], jh_t.indptr, jh_t.indices, DXs
                )
            if nub:
                Jh_dx[:, n_ineq_nl : n_ineq_nl + nub] = DXs[:, ub_idx]
            if lb_idx.size:
                Jh_dx[:, n_ineq_nl + nub :] = -DXs[:, lb_idx]
            DZ = -H[s] - z[s] - Jh_dx
            DMU = -mu[s] + (gamma[s][:, None] - mu[s] * DZ) / z[s]
            with np.errstate(divide="ignore", invalid="ignore"):
                alphap = np.minimum(
                    opt.xi * np.where(DZ < 0, z[s] / -DZ, np.inf).min(axis=1), 1.0
                )
                alphad = np.minimum(
                    opt.xi * np.where(DMU < 0, mu[s] / -DMU, np.inf).min(axis=1), 1.0
                )
        else:
            DZ = np.zeros((s.size, 0))
            DMU = np.zeros((s.size, 0))
            alphap = np.ones(s.size)
            alphad = np.ones(s.size)

        X[s] += alphap[:, None] * DXs
        if niq:
            z[s] += alphap[:, None] * DZ
            mu[s] += alphad[:, None] * DMU
            gamma[s] = opt.sigma * np.einsum("ij,ij->i", z[s], mu[s]) / niq
        if neq:
            lam[s] += alphad[:, None] * Dlams

        # --------------------------------------------------- batched re-evaluate
        F0s = F[s].copy()
        dt = evaluate(s)
        phase["eval"][s] += dt / s.size
        it_eval[s] += dt / s.size
        lagrangian_gradient(s)
        conditions(s, F0s)

        if opt.record_history:
            step_sizes = np.abs(DXs).max(axis=1) if nx else np.zeros(s.size)
            for pos, b in enumerate(s):
                histories[b].append(
                    IterationRecord(
                        iteration=int(iterations[b]),
                        step_size=float(step_sizes[pos]),
                        feascond=conds[b, 0],
                        gradcond=conds[b, 1],
                        compcond=conds[b, 2],
                        costcond=conds[b, 3],
                        objective=F[b] / opt.cost_mult,
                        gamma=gamma[b],
                        alpha_primal=float(alphap[pos]),
                        alpha_dual=float(alphad[pos]),
                        eval_seconds=it_eval[b],
                        assembly_seconds=it_asm[b],
                        factor_seconds=it_fac[b],
                        backsolve_seconds=it_back[b],
                    )
                )
        if opt.verbose:
            LOGGER.info(
                "it %3d  active=%d  worst feas=%.3e grad=%.3e comp=%.3e cost=%.3e",
                it,
                s.size,
                conds[s, 0].max(),
                conds[s, 1].max(),
                conds[s, 2].max(),
                conds[s, 3].max(),
            )

        close_iteration()
        # Retirement as row masks, classified by the first test a row meets
        # (1-based index into _RETIREMENTS); finalised in ascending row order.
        Xs = X[s]
        retire = np.select(
            [
                (conds[s] < tols).all(axis=1),
                ~np.isfinite(Xs).all(axis=1),
                np.abs(Xs).max(axis=1) > opt.max_stepsize,
            ],
            [1, 2, 3],
            0,
        )
        for pos in np.flatnonzero(retire):
            message, converged = _RETIREMENTS[retire[pos] - 1]
            finalize(int(s[pos]), message, converged)

        # Per-scenario iteration limit, relative to each scenario's own
        # enrollment (a fed scenario gets the full budget it would have had
        # in a standalone batch).
        rows = np.flatnonzero(active)
        for b in rows[it - start_it[rows] >= opt.max_it]:
            finalize(int(b), "iteration limit reached", False)

    return results[:n_enrolled]  # type: ignore[return-value]
