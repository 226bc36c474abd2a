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
A single problem is the one-row case: :func:`repro.opf.solver.solve_opf`
runs this loop at width 1 through :func:`repro.opf.batch.solve_opf_batch`.

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
(:class:`_BatchKKTAssembler`) and hands the ``(B, nnz)`` data plane to
**one** :meth:`~repro.mips.ldl.LDLSolver.solve_blocks` call, which
refactorises the whole plane over the plan's symbolic analysis (a
predictor–corrector row the step cascade loses takes a second, fresh pass).  The problem enters as a
:class:`LockstepPlan` — everything derived from the problem structure alone:
bound partition, canonical templates, transpose plans, the assembler, the
analysis of its KKT pattern — which callers that solve one structure
repeatedly build once.
The plan's index maps are replayed over the ``(B, ·)`` state with the
primitives of :mod:`repro.utils.planes` — ``take`` for column gathers,
flat-offset :class:`~repro.utils.planes.Targets` for the bound-row scatters
of the Lagrangian gradient and the entry clamp, ``np.add.reduceat`` for row
sums — because ``plane[:, idx]`` makes a lockstep step of two rows cost two
to three times one of one row while computing the same bits.

A call enrolls its rows once, at entry.  Scenarios retire individually: a
converged (or numerically failed) scenario drops out of the active set
immediately, so stragglers never pay for finishers.  The entry, the step
and the KKT solve treat each row of a plane independently of its
neighbours, so with row-independent callbacks a scenario's trajectory is
bit-identical whatever batch it is solved in — alone, in the full sweep, or
in any subset or order of it; the fleet's micro-batches and its bisection
of a failing task rely on that.  Each scenario gets its own
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
  values and Jacobian data planes on the plan's Jacobian templates;
* ``hess_fcn(X, Lam_nl, Mu_nl, idx) -> Hdata`` — Lagrangian Hessian data
  planes on the plan's Hessian template.

The loop runs MATPOWER's MIPS at its default settings: the termination
tolerances, ``XI``, ``SIGMA``, ``Z0``, ``MAX_STEPSIZE`` and ``BOUND_EQ_TOL``
are the constants of :mod:`repro.mips.options`, and
:class:`~repro.mips.options.MIPSOptions` sets only the iteration cap.

**The entry rule, then the endgame.**  A row that brings warm ``µ`` or ``Z``
(per ``mu0_mask`` / ``z0_mask``) enters at MATPOWER's entry and takes
MATPOWER's **fixed-σ** step: one KKT solve with the barrier target
``γ = SIGMA·zᵀµ/niq`` of the previous iteration.  Every other row — cold, or
bringing only ``x`` and ``λ`` — enters centred (below) and takes Mehrotra's
**predictor–corrector** step (Mehrotra 1992; for OPF, Torres & Quintana
1998) through :class:`_Centring`:

1. the predictor solves the system with ``γ = 0``; from the full steps to
   the boundary it sets ``µ_aff = (z + α_p ΔZ_aff)ᵀ(µ + α_d ΔMU_aff) / niq``
   and ``σ = (µ_aff/µ)³`` clipped to ``[floor, 1]``, the floor being
   ``SIGMA``;
2. the corrector solves, on the predictor's factor, the right-hand side
   for the per-constraint target ``γ_i = σµ − ΔZ_aff,i·ΔMU_aff,i``; ``ΔMU``
   follows from that ``γ`` vector.

A row whose ``feascond`` ends an iteration below ``FEASTOL`` is in the
**endgame** for the rest of its solve: predictor–corrector steps with the
floor ``SIGMA_END``, whichever rule it entered with, so a full start leaves
the fixed-σ step there.  With the floor at ``SIGMA`` a feasible row cuts
complementarity by at most 10x per iteration — a traced cold case118s row
spent its last five iterations at one decade each at full steps, and a full
start from a row's own solution took three iterations — while superlinear
convergence needs ``σ → 0`` near the solution (Zhang, Tapia & Dennis, SIAM J.
Optim. 1992).  :func:`_sigma_floor` is the one place a row's rule is read.
The trigger and the floor are fitted on cold corpora (``sample_loads`` seed
10, 128 rows per case, 64 on case118s ±5 %), on ``HARD_ROWS``' case30s row
(``tests/test_predictor_corrector.py``) and on full starts from each case118s
row's own solution; mean iterations, rows lost in brackets:

=================  ======  ======  =============  ======  ==========  =====
trigger, floor     118s    118s    30s            57s     30s hard    exact
                   ±5 %    ±20 %   ±5 / ±20 %     ±20 %   row         start
=================  ======  ======  =============  ======  ==========  =====
none (``SIGMA``)   15.34   15.45   12.00 / 12.23  13.00   12          3
``FEASTOL``, .005  13.30   13.51   10.62 / (2)    10.12   12          2
``FEASTOL``, .01   13.67   13.77   10.62 / (1)    10.91   12          2
``FEASTOL``, .02   14.02   14.09   11.31 / 11.16  11.00   12          2
``FEASTOL``, .05   14.69   14.74   11.48 / 11.60  11.96   12          3
10·FEASTOL, .02    13.75   13.81   11.00 / 11.25  10.99   (cap)       2
FEASTOL/10, .02    14.09   14.26   11.88 / 11.73  11.07   12          2
full step, .01     13.55   13.61   (1) / 12.18    9.36    (cap)       2
full step, .02     13.91   13.91   11.15 / 11.24  10.08   109         2
=================  ======  ======  =============  ======  ==========  =====

(A full step is ``α_p = α_d = 1``.)  The chosen pair, ``FEASTOL`` and
``SIGMA_END`` = 0.02, loses no row and leaves no row far above its corpus's
mean: a lower floor or a looser trigger loses case30s rows to singular KKT
systems or the iteration cap, a full-step trigger takes single case30s rows
to 41–114 iterations, and a tighter trigger or a higher floor gives back
iterations.  ``FEASTOL/10`` with a 0.005 floor runs 0.1–0.6 iterations
faster and loses nothing, but it sits next to the floor that loses rows, and
kNN-4 takes 5.75 under both.  Every converged row certifies.
Against no endgame, the case118s N-2 pool (96 pairs, seed 7) goes 15.43 →
13.97, case300s (32 rows, ±5 % seed 1 / ±20 % seed 3) 16.00 / 16.22 → 14.00
/ 14.28, case9 / case14 ±20 % 11.88 / 12.00 → 10.04 / 10.09, and on the
case118s warm-start corpus (``tests/test_warm_start_corpus.py``) kNN-4 goes
6.58 → 5.75 and the MTL 8.71 → 7.46.  Full starts from another load draw
(case118s ±10 %, 64 rows, seeds 21 / 22) go 15.05 → 15.53, max 26 → 35.

The solve of a predictor–corrector row is a cascade, which :class:`_Centring`
runs on the :class:`~repro.mips.ldl.BlockSolveReport` of the iteration's
``solve_blocks`` call.  The corrector needs no new factorisation: each row
back-substitutes only the change of right-hand side on the factor its
predictor was accepted from — the base factor or a shifted retry — on top of
the predictor's solution (:meth:`~repro.mips.ldl.BlockSolveReport.resolve`),
then refines against the unperturbed matrix and must pass the acceptance
residual.  Because only the corrector is the step, the predictor is refined
to ``residual_tol`` rather than ``refine_tol``: on cold case118s rows that
takes refinement from ~3.1 to ~2.0 back-substitutions per row-iteration (1.1
on a fixed-σ row-iteration) at iteration counts within 3 %.  A row whose
corrector is not accepted solves its fallback — the fixed-σ right-hand side —
on the same factor; a row whose predictor failed, or whose fallback failed
there too, takes a fresh ``solve_blocks`` pass on the fallback.  So a
predictor–corrector row whose predictor or corrector is not accepted takes
the fixed-σ step that iteration.

**The centred entry.**  A row without warm ``µ`` / ``Z`` keeps MATPOWER's
slacks ``z = max(Z0, −h(x₀))`` but not its ``µ = Z0``: it enters with
``γ₀ = max(Z0, ‖∇f(x₀)‖∞)``, read from its own entry gradient at its own
``x₀``, and ``µ = γ₀/z``, so it starts exactly centred, ``z∘µ = γ₀`` on every
inequality row, with duals at the scale stationarity asks of them.
``‖∇f(x₀)‖∞`` is 2.9e3–5.2e3 on case9 … case300s; from ``µ = Z0 = 1`` a cold
case118s row spent its first fourteen iterations on primal steps mostly
below 0.4 while ``compcond`` climbed from 4.1e2 to 4.5e3 before it fell.  The
scale is the data's, not a constant's.  On the sixteen cold case118s rows of
each of three perfbench ``cold118_b16`` request lists (seeds 1–3), before
the endgame, mean iterations were

* 15.0–15.4, 15.0–15.1, 15.4–15.5, 16.1–16.5 and 17.2 with ``γ₀`` scaled by
  0.1, 0.3, 1 (the rule), 3 and 10;
* 25.0–25.6, 30.9–32.8, 19.1–19.2, 18.1–18.3, 15.1–15.2 and 16.3–16.4 with a
  fixed ``γ₀`` of 1 (the ``µ = Z0`` entry), 3, 10, 100, 1e3 and 1e4.

The centred entry also solves every cold row the ``µ = Z0`` entry lost to
exploded or singular steps: 32 of 32 cold case300s rows of ``±5 %`` seed 1
and ``±20 %`` seed 3 (21 and 23 before), and the single rows
``tests/test_predictor_corrector.py`` pins.  Rows with only ``x`` and ``λ``
took MATPOWER's entry until the endgame came, and lost to it: on case118s
±10 % rows started from another draw's solutions (64 rows, seeds 21 / 22),
``x``-only starts took 51.1 mean iterations (63/64 converged) and ``x + λ``
starts 132.6 (44/64) with the fixed-σ step, 14.1 (64/64 each) centred.  The
endgame does not rescue them: two N-2 rows started from their own ``x`` and
``λ`` (``tests/test_mixed_topology_lockstep.py``) took 150 and 139 iterations
with the fixed-σ step, failed after 56 and took 110 with the fixed-σ step and
the endgame, and take 14 and 13 centred.  The entry reads only
its own row, so batch and subset invariance hold, and every row with warm
``µ`` or ``Z`` keeps MATPOWER's entry bit for bit.

The clip keeps predictor–corrector rows robust: the pure ``(µ_aff/µ)³``
failed 16 of 64 case30s ±10 % rows from the ``µ = Z0`` entry, mostly on
singular KKT systems, and a ``σ`` above 1 made case9 steps explode.  The
entry rule keeps full starts safe: with predictor–corrector steps on every
row from entry, full starts from another load draw took 14.8 instead of 7.4
mean iterations on case118s.  Mean MIPS iterations of cold rows, 16 rows per
case, ``sample_loads`` seed 12345 (N-2: sixteen pairs, seed 7), before the
endgame:

=================  ===========  =====================  =====================
rows               fixed σ      predictor–corrector,   predictor–corrector,
                                ``µ = Z0`` entry       centred entry
=================  ===========  =====================  =====================
case118s ±5 %      55.0         26.0                   15.6
case118s N-2       56.2         25.1                   15.9
case14 ±20 %       24.4         12.0                   12.0
case9 ±20 %        18.6         17.1                   11.9
case30s ±10 %      23.6         18.4                   12.0
case57s ±5 %       24.4         26.6                   13.0
=================  ===========  =====================  =====================

(``tests/test_predictor_corrector.py`` prints the fixed-σ column and the
production rule's, 10.1–14.1 with the endgame; every row converges and
certifies under both.)  A predictor–corrector iteration costs one
factorisation and two solves, so on case118s it spends about two refinement
back-substitutions per row-iteration against 1.1 for a fixed-σ one, and still
takes about a quarter of the fixed-σ iterations.

``idx`` carries the original batch positions of the rows of ``X`` so callbacks
can look up per-scenario data (loads, outages) for the shrinking active set.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.mips.ldl import BlockSolveReport, LDLSolver, LDLSymbolic
from repro.mips.options import (
    BOUND_EQ_TOL,
    COMPTOL,
    COSTTOL,
    FEASTOL,
    GRADTOL,
    MAX_STEPSIZE,
    SIGMA,
    SIGMA_END,
    XI,
    Z0,
    MIPSOptions,
)
from repro.mips.result import ConstraintPartition, IterationRecord, MIPSResult
from repro.utils import planes
from repro.utils.logging import get_logger
from repro.utils.planes import Targets
from repro.utils.sparse import (
    BatchedCSR,
    MatmulPlan,
    bmat_order,
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
#: Batched Hessian callback: ``(X, Lam_nl, Mu_nl, idx) -> Hdata``.
BatchedHessianFn = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

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


def _gather(order: np.ndarray, *data_planes: np.ndarray) -> np.ndarray:
    """Assembled data planes: the blocks' ``(B, nnz)`` planes, concatenated in
    row-major block order, gathered through a :func:`bmat_order` slot order."""
    return planes.take(np.concatenate(data_planes, axis=1), order)


def _step_to_boundary(v: np.ndarray, dv: np.ndarray, scale: float) -> np.ndarray:
    """Per row, ``min(1, scale · α_max)`` where ``α_max`` is the longest step
    that keeps ``v + α·dv`` non-negative."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.minimum(scale * np.where(dv < 0, v / -dv, np.inf).min(axis=1), 1.0)


def _dual_step(mu: np.ndarray, z: np.ndarray, dz: np.ndarray, target) -> np.ndarray:
    """``ΔMU`` from the linearised complementarity ``z∘µ = target``."""
    return -mu + (target - mu * dz) / z


def _sigma_floor(warm_duals: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """Each row's step rule, as the floor of its predictor–corrector ``σ``:
    ``SIGMA_END`` once the row has been feasible (the endgame), ``SIGMA`` for
    a row that entered without warm ``µ`` / ``Z``, NaN — MATPOWER's fixed-σ
    step — for any other row."""
    return np.where(feasible, SIGMA_END, np.where(warm_duals, np.nan, SIGMA))


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
    :func:`~repro.utils.sparse.bmat_order`) and each iteration
    replays them as pure NumPy operations over ``(B, nnz)`` data planes.  The
    product keeps its full structural pattern (no pruning of entries that
    sum to zero), so the KKT pattern is stable for the life of the problem.

    Every replayed operation reduces each plane row independently, so a row
    of the produced plane is **bit-identical** whatever the batch around it —
    ready for :meth:`~repro.mips.ldl.LDLSolver.solve_blocks`.
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

        jg_stack, self._jg_order = bmat_order([[jg_t], [E_eq]], "csr")
        jh_stack, self._jh_order = bmat_order([[jh_t], [E_ub], [E_lb]], "csr")
        self._eq_data = E_eq.data
        self._ub_data = E_ub.data
        self._lb_data = E_lb.data
        self.neq = jg_stack.shape[0]
        self.niq = jh_stack.shape[0]

        if self.niq:
            self._jh_rows = csr_rows(jh_stack)
            order, t_indptr, t_indices = transpose_plan(jh_stack)
            self._jhT_order = order
            self._jhT = BatchedCSR(t_indptr, t_indices)
            jhT = sp.csr_matrix(
                (np.zeros(jh_stack.nnz), t_indices, t_indptr), shape=(nx, self.niq)
            )
            jhT.has_canonical_format = True
            self._matmul = MatmulPlan(jhT, jh_stack)
            m_template, positions = pattern_union([hess_t, self._matmul.template])
            self._pos_hess, self._pos_prod = (Targets(p) for p in positions)
        else:
            m_template = hess_t
            self._pos_hess = self._pos_prod = None

        self._m_nnz = m_template.nnz
        if self.neq:
            order, _, _ = transpose_plan(jg_stack)
            self._jgT_order = order
            jgT = sp.csr_matrix(jg_stack.T)
            jgT.sort_indices()
            jgT.data = np.zeros(jgT.nnz)
            kkt_blocks = [[m_template, jgT], [jg_stack, None]]
        else:
            kkt_blocks = [[m_template]]
        #: Canonical CSC pattern of one scenario's KKT system (read-only).
        self.kkt_template, self._kkt_order = bmat_order(kkt_blocks, "csc")

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
            jh_plane = _gather(
                self._jh_order,
                Jh_data,
                np.broadcast_to(self._ub_data, (batch, self._ub_data.size)),
                np.broadcast_to(self._lb_data, (batch, self._lb_data.size)),
            )
            # A diverging row's µ/z overflows here; it retires through the
            # step checks (_STEP_FAILURES), so the overflow is not an error.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                zinv = 1.0 / Z
                jh_scaled = jh_plane * planes.take(Mu * zinv, self._jh_rows)
                jhT_plane = planes.take(jh_plane, self._jhT_order)
                prod = self._matmul.multiply(jhT_plane, jh_scaled)
                m_plane = np.zeros((batch, self._m_nnz))
                self._pos_hess.add(m_plane, Hdata)
                self._pos_prod.add(m_plane, prod)
                vec = (Mu * H + Gamma[:, None]) * zinv
                N = Lx + self._jhT.matvec(jhT_plane, vec)
        else:
            m_plane = Hdata
            N = Lx.copy()

        if self.neq:
            jg_plane = _gather(
                self._jg_order,
                Jg_data,
                np.broadcast_to(self._eq_data, (batch, self._eq_data.size)),
            )
            kkt_plane = _gather(
                self._kkt_order, m_plane, planes.take(jg_plane, self._jgT_order), jg_plane
            )
            rhs_plane = np.concatenate([-N, -G], axis=1)
        else:
            kkt_plane = _gather(self._kkt_order, m_plane)
            rhs_plane = -N
        return kkt_plane, rhs_plane


class LockstepPlan:
    """The structure-only setup of a lockstep solve, built once and reused.

    Everything :func:`mips_batch` derives from the sparsity templates and the
    variable bounds alone — the bound partition, the canonical templates, the
    transpose plans of the nonlinear Jacobians, the batched KKT assembler and
    the symbolic analysis of its KKT pattern (:attr:`symbolic`).
    Callers that solve many batches of one problem structure (the AC-OPF
    model of a case) build it once and hand it to every call; the plan holds
    no per-solve state.

    Bounds become constraint rows: a variable with ``|xmax − xmin| ≤
    BOUND_EQ_TOL`` is an equality row (``eq_idx``), every other finite upper
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
    ) -> None:
        xmin = np.full(nx, -np.inf) if xmin is None else np.asarray(xmin, dtype=float)
        xmax = np.full(nx, np.inf) if xmax is None else np.asarray(xmax, dtype=float)
        if xmin.shape != (nx,) or xmax.shape != (nx,):
            raise ValueError("xmin/xmax must match the width of x0")
        if np.any(xmin > xmax):
            raise ValueError("xmin > xmax for at least one variable")
        self.nx = nx
        self.xmin, self.xmax = xmin, xmax
        lo, hi = np.isfinite(xmin), np.isfinite(xmax)
        fixed = lo & hi & (np.abs(xmax - xmin) <= BOUND_EQ_TOL)
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
        # Scatter targets of the bound rows in x's columns, and the row
        # reductions of the Lagrangian gradient and the step length.
        self.eq_cols, self.ub_cols, self.lb_cols = (
            Targets(ix) for ix in (self.eq_idx, self.ub_idx, self.lb_idx)
        )
        self.jgT_order, indptr, indices = transpose_plan(self.jg_t)
        self.jgT = BatchedCSR(indptr, indices)
        self.jhT_order, indptr, indices = transpose_plan(self.jh_t)
        self.jhT = BatchedCSR(indptr, indices)
        self.jh = BatchedCSR(self.jh_t.indptr, self.jh_t.indices)
        selectors = (
            _selector(self.eq_idx, 1.0, nx),
            _selector(self.ub_idx, 1.0, nx),
            _selector(self.lb_idx, -1.0, nx),
        )
        self.assembler = _BatchKKTAssembler(self.jg_t, self.jh_t, self.hess_t, selectors)
        #: The symbolic analysis of the KKT pattern every solve factorises.
        self.symbolic = LDLSymbolic.analyse(self.assembler.kkt_template)

    def jh_dot(self, Jh_data: np.ndarray, DX: np.ndarray) -> np.ndarray:
        """``Jh·dx`` per row over the stacked inequality rows (nonlinear,
        upper bound, lower bound)."""
        n_nl, nub = self.jh_t.shape[0], self.ub_idx.size
        out = np.zeros((DX.shape[0], self.partition.n_ineq))
        if n_nl:
            out[:, :n_nl] = self.jh.matvec(Jh_data, DX)
        if nub:
            out[:, n_nl : n_nl + nub] = planes.take(DX, self.ub_idx)
        if self.lb_idx.size:
            out[:, n_nl + nub :] = -planes.take(DX, self.lb_idx)
        return out

    def add_jh_transpose(self, out: np.ndarray, Jh_data: np.ndarray, V: np.ndarray) -> None:
        """``out += Jhᵀ·v`` per row, ``v`` over the stacked inequality rows."""
        n_nl, nub = self.jh_t.shape[0], self.ub_idx.size
        if n_nl:
            out += self.jhT.matvec(planes.take(Jh_data, self.jhT_order), V[:, :n_nl])
        if nub:
            self.ub_cols.add(out, V[:, n_nl : n_nl + nub])
        if self.lb_idx.size:
            self.lb_cols.sub(out, V[:, n_nl + nub :])


class _Centring:
    """One lockstep iteration's KKT solve (:meth:`solve`), with Mehrotra's
    predictor–corrector step for its predictor–corrector rows.

    The plane holds the iteration's active rows; ``rows`` are the
    predictor–corrector ones (none when every row takes the fixed-σ step),
    whose right-hand sides were assembled with ``γ = 0`` (the predictor), and
    ``floor`` holds each plane row's σ floor (:func:`_sigma_floor`).  From a
    predictor solution it takes the full steps to the boundary, ``α_aff^p``
    and ``α_aff^d``, and sets ``µ_aff = (z + α_p ΔZ_aff)ᵀ(µ + α_d ΔMU_aff) /
    niq``, ``σ = (µ_aff/µ)³`` clipped to ``[floor, 1]`` and the per-row,
    per-constraint target
    ``γ_i = σµ − ΔZ_aff,i·ΔMU_aff,i``.  The corrector
    right-hand side is the predictor's minus ``[Jhᵀ(γ/z); 0]``.  The
    fallback is the same with the fixed-σ target ``γ_i = gamma``.
    :attr:`target` keeps the ``γ`` each row's solution solves for, and
    :attr:`sigma_mu` its centring target ``σµ``.  Every right-hand side is
    computed row by row, so no row depends on the others.
    """

    def __init__(self, plan, rows, floor, rhs_plane, Jh_data, H, z, mu, gamma) -> None:
        self.rows = rows
        self._floor = floor
        self._plan = plan
        self._rhs, self._Jh, self._H = rhs_plane, Jh_data, H
        self._z, self._mu, self._gamma = z, mu, gamma
        self.target = np.zeros_like(z)
        self.sigma_mu = np.zeros(z.shape[0])
        #: Seconds spent computing corrector and fallback right-hand sides.
        self.rhs_seconds = 0.0
        #: Numeric-factorisation seconds of the fresh passes.
        self.factor_seconds = 0.0

    def _shifted(self, rows: np.ndarray, target: np.ndarray) -> np.ndarray:
        shift = np.zeros((rows.size, self._plan.nx))
        self._plan.add_jh_transpose(shift, self._Jh[rows], target / self._z[rows])
        self.target[rows] = target
        rhs = self._rhs[rows]
        rhs[:, : self._plan.nx] -= shift
        return rhs

    def _corrector(self, rows: np.ndarray, predictor: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        z, mu = self._z[rows], self._mu[rows]
        # A diverging row overflows like in the assembly (see there).
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dz = -self._H[rows] - z - self._plan.jh_dot(
                self._Jh[rows], predictor[:, : self._plan.nx]
            )
            dmu = _dual_step(mu, z, dz, 0.0)
            ap = _step_to_boundary(z, dz, 1.0)
            ad = _step_to_boundary(mu, dmu, 1.0)
            niq = z.shape[1]
            mu_now = np.einsum("ij,ij->i", z, mu) / niq
            mu_aff = np.einsum("ij,ij->i", z + ap[:, None] * dz, mu + ad[:, None] * dmu) / niq
            sigma_mu = np.clip((mu_aff / mu_now) ** 3, self._floor[rows], 1.0) * mu_now
            self.sigma_mu[rows] = sigma_mu
            rhs = self._shifted(rows, sigma_mu[:, None] - dz * dmu)
        self.rhs_seconds += time.perf_counter() - t0
        return rhs

    def _fallback(self, rows: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        gamma = self._gamma[rows]
        self.sigma_mu[rows] = gamma
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rhs = self._shifted(rows, np.repeat(gamma[:, None], self._z.shape[1], axis=1))
        self.rhs_seconds += time.perf_counter() - t0
        return rhs

    def solve(self, solver: LDLSolver, data_plane: np.ndarray) -> BlockSolveReport:
        """The iteration's KKT solve: the plane, then the predictor–corrector
        rows' cascade (module docstring).  Every other row keeps its first
        solution."""
        tol = np.full(self._rhs.shape[0], solver.refine_tol)
        tol[self.rows] = solver.residual_tol
        report = solver.solve_blocks(data_plane, self._rhs, tol)
        x = report.solutions
        solved = np.isin(self.rows, report.failed, invert=True)
        rows = self.rows[solved]
        if rows.size:
            rhs = self._corrector(rows, x[rows])
            xc, ok = report.resolve(rows, rhs, np.ones(rows.size, dtype=bool))
            x[rows[ok]] = xc[ok]
            rows = rows[~ok]
        fallback = np.union1d(rows, self.rows[~solved])
        if fallback.size == 0:
            return report
        rhs = self._fallback(fallback)
        again = np.isin(fallback, rows, invert=True)
        if rows.size:
            same = ~again
            xf, ok = report.resolve(rows, rhs[same], report.perturbed[rows])
            x[rows[ok]] = xf[ok]
            again[np.flatnonzero(same)[~ok]] = True
        lost = fallback[again]
        if lost.size:
            fresh = solver.solve_blocks(data_plane[lost], rhs[again])
            x[lost] = fresh.solutions
            report.regularizations[lost] = fresh.regularizations
            kept = np.setdiff1d(np.asarray(report.failed, dtype=np.int64), lost)
            report.failed = np.union1d(kept, lost[fresh.failed]).tolist()
            self.factor_seconds += fresh.factor_seconds
        return report


def mips_batch(
    f_fcn: BatchedObjectiveFn,
    x0: np.ndarray,
    gh_fcn: Optional[BatchedConstraintFn] = None,
    hess_fcn: Optional[BatchedHessianFn] = None,
    *,
    plan: LockstepPlan,
    lam0: Optional[np.ndarray] = None,
    mu0: Optional[np.ndarray] = None,
    z0: Optional[np.ndarray] = None,
    lam0_mask: Optional[np.ndarray] = None,
    mu0_mask: Optional[np.ndarray] = None,
    z0_mask: Optional[np.ndarray] = None,
    options: Optional[MIPSOptions] = None,
    deadline: Optional[object] = None,
) -> List[MIPSResult]:
    """Solve ``B`` same-structure NLPs in lockstep; one result per scenario.

    Parameters follow MATPOWER's ``mips``, lifted to a batch axis:
    ``x0`` is ``(B, nx)``, bounds are shared (same structure implies the same
    bound vectors), warm starts are ``(B, ·)`` matrices whose rows apply only
    where the corresponding ``*_mask`` entry is True (all rows when the mask
    is omitted).  ``plan`` is the problem's :class:`LockstepPlan`: the
    variable bounds and the fixed sparsity patterns of the
    nonlinear-constraint Jacobians and the Lagrangian Hessian whose data
    planes the callbacks produce.

    ``x0`` always holds a start.  A row with warm ``µ`` or ``Z`` enters at
    MATPOWER's entry and takes fixed-σ steps until it is feasible; every
    other row enters centred and takes predictor–corrector steps (module
    docstring).

    **Deadlines.**  ``deadline`` is an absolute wall deadline on the
    ``time.monotonic()`` clock — a scalar applying to every row or a ``(B,)``
    vector of per-row deadlines (NaN and inf mean unbounded).  Deadlines are
    checked cooperatively between iterations, and an expired row retires
    with ``timed_out`` set through exactly the retirement path a converged
    row takes — its lockstep neighbours are bitwise unperturbed.

    Returns a list of per-scenario :class:`MIPSResult` in batch order.
    """
    opt = options or MIPSOptions()

    X = np.array(x0, dtype=float, order="C")
    if X.ndim != 2:
        raise ValueError("x0 must be a (B, nx) matrix")
    batch, nx = X.shape
    if batch == 0:
        return []
    if hess_fcn is None:
        raise ValueError("mips_batch requires hess_fcn")
    if plan.nx != nx:
        raise ValueError("the plan was built for a different width")
    #: Per-row absolute wall deadline (``time.monotonic()`` clock; +inf = none).
    row_deadline = np.full(batch, np.inf)
    if deadline is not None:
        dl = np.asarray(deadline, dtype=float)
        if dl.ndim and dl.shape != (batch,):
            raise ValueError("deadline must be a scalar or a (B,) vector")
        row_deadline[:] = np.where(np.isnan(dl), np.inf, dl)
    lam0v, lam_m = _warm_rows(lam0, lam0_mask, batch, plan.partition.n_eq, "lam0")
    mu0v, mu_m = _warm_rows(mu0, mu0_mask, batch, plan.partition.n_ineq, "mu0")
    z0v, z_m = _warm_rows(z0, z0_mask, batch, plan.partition.n_ineq, "z0")

    xmin, xmax = plan.xmin, plan.xmax
    eq_idx, ub_idx, lb_idx = plan.eq_idx, plan.ub_idx, plan.lb_idx
    jg_t, jh_t = plan.jg_t, plan.jh_t
    n_eq_nl, n_ineq_nl = jg_t.shape[0], jh_t.shape[0]
    partition = plan.partition
    neq, niq = partition.n_eq, partition.n_ineq
    jgT_order = plan.jgT_order
    take = planes.take
    assembler = plan.assembler

    solver = LDLSolver(plan.symbolic)

    # ------------------------------------------------------------- batch state
    # One row per scenario for the whole call; ``active`` masks the scenarios
    # still marching.
    F = np.zeros(batch)
    dF = np.zeros((batch, nx))
    G = np.zeros((batch, neq))
    H = np.zeros((batch, niq))
    Jg_data = np.zeros((batch, jg_t.nnz))
    Jh_data = np.zeros((batch, jh_t.nnz))
    Lx = np.zeros((batch, nx))
    lam = np.zeros((batch, neq))
    mu = np.full((batch, niq), Z0)
    z = np.full((batch, niq), Z0)
    gamma = np.full(batch, Z0)
    conds = np.zeros((batch, 4))
    tols = np.array([FEASTOL, GRADTOL, COMPTOL, COSTTOL])

    iterations = np.zeros(batch, dtype=int)
    phase = {name: np.zeros(batch) for name in _PHASES}
    histories: List[List[IterationRecord]] = [[] for _ in range(batch)]
    results: List[Optional[MIPSResult]] = [None] * batch
    active = np.ones(batch, dtype=bool)
    #: Rows that entered with warm µ or Z, and rows that have ended an
    #: iteration feasible: together they set each row's step rule
    #: (:func:`_sigma_floor`).
    warm_duals = mu_m | z_m
    endgame = np.zeros(batch, dtype=bool)
    #: Accepted singular-KKT recoveries per scenario.
    reg_counts = np.zeros(batch, dtype=int)
    #: Additive wall share per scenario: every iteration's wall time is split
    #: evenly over the scenarios active in it, so shares sum to the lockstep
    #: wall and stay comparable with one-scenario solve times.
    share = np.zeros(batch)
    it = 0

    def evaluate(idx: np.ndarray) -> float:
        """Evaluate objective + constraints for rows ``idx``; returns wall time."""
        t0 = time.perf_counter()
        Xa = X[idx]
        f_raw, df_raw = f_fcn(Xa, idx)
        F[idx] = f_raw
        dF[idx] = df_raw
        if gh_fcn is not None:
            g_nl, h_nl, jgd, jhd = gh_fcn(Xa, idx)
            g_nl = np.asarray(g_nl, dtype=float)
            h_nl = np.asarray(h_nl, dtype=float)
        else:
            g_nl = np.zeros((idx.size, 0))
            h_nl = np.zeros((idx.size, 0))
            jgd = np.zeros((idx.size, 0))
            jhd = np.zeros((idx.size, 0))
        G[idx] = np.concatenate([g_nl, take(Xa, eq_idx) - xmin[eq_idx]], axis=1)
        H[idx] = np.concatenate(
            [h_nl, take(Xa, ub_idx) - xmax[ub_idx], xmin[lb_idx] - take(Xa, lb_idx)], axis=1
        )
        Jg_data[idx] = jgd
        Jh_data[idx] = jhd
        return time.perf_counter() - t0

    def lagrangian_gradient(idx: np.ndarray) -> None:
        Lxa = dF[idx].copy()
        lam_a = lam[idx]
        if n_eq_nl:
            Lxa += plan.jgT.matvec(take(Jg_data[idx], jgT_order), lam_a[:, :n_eq_nl])
        if eq_idx.size:
            plan.eq_cols.add(Lxa, lam_a[:, n_eq_nl:])
        plan.add_jh_transpose(Lxa, Jh_data[idx], mu[idx])
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
            f=F[b],
            converged=converged,
            iterations=int(iterations[b]),
            lam=lam[b].copy(),
            mu=mu[b].copy(),
            z=z[b].copy(),
            partition=partition,
            message=message,
            history=histories[b],
            elapsed_seconds=time.perf_counter() - t_entry,
            phase_seconds={name: float(phase[name][b]) for name in _PHASES},
            kkt_regularizations=int(reg_counts[b]),
            # One solver serves the whole batch, so the counters are
            # batch-level aggregates snapshotted at this row's retirement.
            kkt_telemetry=solver.telemetry(),
            timed_out=timed_out,
            wall_share_seconds=float(share[b]),
        )

    # ----------------------------------------------------------------- entry
    # Primal clamp into bounds, entry evaluation, dual initialisation
    # (MATPOWER's for a row with warm µ or Z, centred at the objective's
    # scale for any other), entry conditions, and immediate
    # retirement of rows that are already converged.
    t_entry = time.perf_counter()
    every = np.arange(batch)
    plan.eq_cols.put(X, xmin[eq_idx])
    if lb_idx.size:
        plan.lb_cols.put(X, np.maximum(take(X, lb_idx), xmin[lb_idx]))
    if ub_idx.size:
        plan.ub_cols.put(X, np.minimum(take(X, ub_idx), xmax[ub_idx]))

    phase["eval"] += evaluate(every) / batch

    if lam0v is not None and np.any(lam_m):
        lam[lam_m] = lam0v[lam_m]
    if niq:
        # MATPOWER's entry, which every row with warm µ or Z keeps.
        below = H < -Z0
        z[below] = -H[below]
        if z0v is not None and np.any(z_m):
            z[z_m] = np.maximum(z0v[z_m], 1e-10)
        big = Z0 / np.maximum(z, 1e-300) > Z0
        mu[big] = Z0 / z[big]
        if mu0v is not None and np.any(mu_m):
            mu[mu_m] = np.maximum(mu0v[mu_m], 1e-10)
        # A predictor–corrector row enters centred at its objective's scale:
        # γ₀ = max(Z0, ‖∇f(x₀)‖∞) and µ = γ₀/z, so z∘µ = γ₀ on every row.
        entering = ~np.isnan(_sigma_floor(warm_duals, endgame))
        if np.any(entering):
            gamma[entering] = np.maximum(Z0, np.abs(dF[entering]).max(axis=1))
            mu[entering] = gamma[entering, None] / z[entering]
        if np.any(warm_duals):
            gamma[warm_duals] = np.maximum(
                SIGMA * np.einsum("ij,ij->i", z[warm_duals], mu[warm_duals]) / niq, 1e-12
            )

    lagrangian_gradient(every)
    conditions(every, F.copy())

    for b in every:
        histories[b].append(
            IterationRecord(
                iteration=0,
                step_size=0.0,
                feascond=conds[b, 0],
                gradcond=conds[b, 1],
                compcond=conds[b, 2],
                costcond=conds[b, 3],
                objective=F[b],
                gamma=gamma[b],
                alpha_primal=0.0,
                alpha_dual=0.0,
            )
        )

    share += (time.perf_counter() - t_entry) / batch
    for b in np.flatnonzero((conds < tols).all(axis=1)):
        finalize(int(b), "converged", True)

    # ------------------------------------------------------------------ loop
    while True:
        # Cooperative wall-deadline check.  An expired row retires through
        # exactly the retirement path a converged row takes — its state is
        # simply dropped from the active set — so the lockstep trajectories of
        # its neighbours are bitwise unperturbed.
        rows = np.flatnonzero(active)
        if rows.size and bool((row_deadline[rows] < np.inf).any()):
            expired = row_deadline[rows] <= time.monotonic()
            for b in rows[expired]:
                finalize(int(b), "wall deadline exceeded", False, timed_out=True)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        it += 1
        iterations[idx] = it
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
                hess_fcn(X[idx], lam[idx][:, :n_eq_nl], mu[idx][:, :n_ineq_nl], idx)
            )
        )
        hess_dt = time.perf_counter() - t0
        phase["eval"][idx] += hess_dt / na

        # ------------------- batched assembly, then one solve for the active set
        # The shared phases are split evenly across the active set, like the
        # batched evaluation phases.
        # A predictor–corrector row's right-hand side is its predictor
        # (γ = 0); the centring solves the plane and then those rows'
        # correctors.
        t0 = time.perf_counter()
        Jh_a, H_a, z_a, mu_a = Jh_data[idx], H[idx], z[idx], mu[idx]
        floor = _sigma_floor(warm_duals[idx], endgame[idx])
        pc = ~np.isnan(floor) & bool(niq)
        centred = np.flatnonzero(pc)
        gamma_a = gamma[idx]
        if centred.size:
            gamma_a = gamma_a.copy()
            gamma_a[centred] = 0.0
        kkt_plane, rhs_plane = assembler.build(
            Hdata, Jg_data[idx], Jh_a, Lx[idx], G[idx], H_a, z_a, mu_a, gamma_a
        )
        centring = _Centring(plan, centred, floor, rhs_plane, Jh_a, H_a, z_a, mu_a, gamma[idx])
        asm_dt = time.perf_counter() - t0

        # The solve's wall splits into factorisation, the centring's
        # right-hand sides (counted as assembly) and back-substitution.
        t0 = time.perf_counter()
        report = centring.solve(solver, kkt_plane)
        fac_dt = report.factor_seconds + centring.factor_seconds
        back_dt = (time.perf_counter() - t0 - fac_dt - centring.rhs_seconds) / na
        fac_dt /= na
        asm_dt = (asm_dt + centring.rhs_seconds) / na
        phase["assembly"][idx] += asm_dt
        phase["factorization"][idx] += fac_dt
        phase["backsolve"][idx] += back_dt
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
                np.abs(sol[:, :nx]).max(axis=1) > MAX_STEPSIZE,
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
        # ``s[i]`` is plane row ``okpos[i]``; ``centred_s`` indexes its
        # predictor–corrector rows.
        okpos = np.flatnonzero(ok)
        centred_s = np.flatnonzero(pc[ok])

        # ------------------------------------------ batched step-length update
        if niq:
            DZ = -H[s] - z[s] - plan.jh_dot(Jh_data[s], DXs)
            target = gamma[s][:, None]
            if centred_s.size:
                target = np.repeat(target, niq, axis=1)
                target[centred_s] = centring.target[okpos[centred_s]]
            DMU = _dual_step(mu[s], z[s], DZ, target)
            alphap = _step_to_boundary(z[s], DZ, XI)
            alphad = _step_to_boundary(mu[s], DMU, XI)
        else:
            DZ = np.zeros((s.size, 0))
            DMU = np.zeros((s.size, 0))
            alphap = np.ones(s.size)
            alphad = np.ones(s.size)

        X[s] += alphap[:, None] * DXs
        if niq:
            z[s] += alphap[:, None] * DZ
            mu[s] += alphad[:, None] * DMU
            gamma[s] = SIGMA * np.einsum("ij,ij->i", z[s], mu[s]) / niq
        if neq:
            lam[s] += alphad[:, None] * Dlams
        # A fixed-σ row records its next barrier target, a centred row the
        # σµ its step aimed at.
        recorded_gamma = gamma[s]
        if centred_s.size:
            recorded_gamma[centred_s] = centring.sigma_mu[okpos[centred_s]]

        # --------------------------------------------------- batched re-evaluate
        F0s = F[s].copy()
        dt = evaluate(s)
        phase["eval"][s] += dt / s.size
        lagrangian_gradient(s)
        conditions(s, F0s)
        endgame[s] |= conds[s, 0] < FEASTOL

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
                    objective=F[b],
                    gamma=recorded_gamma[pos],
                    alpha_primal=float(alphap[pos]),
                    alpha_dual=float(alphad[pos]),
                )
            )
        if LOGGER.isEnabledFor(logging.DEBUG):
            LOGGER.debug(
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
                np.abs(Xs).max(axis=1) > MAX_STEPSIZE,
            ],
            [1, 2, 3],
            0,
        )
        for pos in np.flatnonzero(retire):
            message, converged = _RETIREMENTS[retire[pos] - 1]
            finalize(int(s[pos]), message, converged)

        if it >= opt.max_it:
            for b in np.flatnonzero(active):
                finalize(int(b), "iteration limit reached", False)

    return results  # type: ignore[return-value]
