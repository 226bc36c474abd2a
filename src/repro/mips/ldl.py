"""Same-pattern sparse LDLᵀ refactorisation backend for the MIPS KKT system.

The default backend (``MIPSOptions.kkt_solver = "ldl"``).  SuperLU (the
``factorized`` reference backend) redoes ordering and numeric *pivoting* from
scratch every MIPS iteration because scipy exposes no same-pattern
refactorisation.
The KKT matrix is symmetric quasi-definite with a fixed sparsity pattern,
which admits the classical split production interior-point codes use (pyomo's
``contrib.interior_point`` drives MUMPS through exactly this): a **symbolic
phase** — fill-reducing ordering, elimination tree, ``L``-pattern, a level
schedule and the head/root cut, computed once per pattern — and a **numeric
phase** that refactorises new data over the frozen pattern with no symbolic
work and roughly half the flops of an LU.

The numeric phase is *level-scheduled and batched* below a cut of the
elimination tree and *dense* above it.  Head columns are grouped by tree
height and every level is one vectorised NumPy update over a
``(B, n + nnz(L_head))`` "column-space" plane (diagonal ``D`` slots followed
by the head's ``L`` entries), so the whole batch of ``B`` same-pattern systems
factorises simultaneously.  Towards the top of the tree the levels hold one to
three columns each, and walking them costs one Python step per level whatever
``B`` is — what made this backend lose to SuperLU at lockstep widths 1–3.  So
the tree is cut at the lowest height above which at most ``_ROOT_MAX`` columns
remain (the **dense root**, closed under ancestry): every head→root
contribution lands in one ``(B, m, m)`` Schur-complement plane with a single
gather/``reduceat``, and each row's block is factorised and back-substituted
by LAPACK's pivoted ``getrf``/``getrs``.  A KKT of order ≤ ``_ROOT_MAX``
(case9, case14) is all root: one dense LU per row.  Per-row arithmetic is
element-wise along the batch axis in the head and one LAPACK call per row in
the root, so each system's numerics are independent of which other systems
share the batch — the row-isolation contract of
:meth:`~repro.mips.linsolve.KKTSolver.solve_blocks`, the backend's one entry
point (a scalar solve is its one-row case) — and the Python-step count per
factorisation is the number of head levels, not ``n`` or ``nnz(L)``.

Exact zero pivots in the head (a zero-diagonal constraint row eliminated
before its coupled primal rows) are handled by qdldl-style **dynamic pivot
clamping**: a pivot whose finalised magnitude is below a tiny signed threshold
is replaced by the threshold — negative on the constraint block, preserving
quasi-definite inertia — so only degenerate pivots are perturbed and healthy
rows keep full factorisation accuracy (the root pivots instead).  Solutions
are polished with guarded per-row iterative refinement against the *true*
(unsymmetrised, unperturbed) matrix to a relative residual of ``refine_tol``,
so the backend reproduces the ``factorized`` reference's trajectories at
solver precision: the cross-backend parity suite runs the full QP/OPF corpus
over it with identical iteration counts.  Singular systems follow the same
contract as :class:`~repro.mips.linsolve.FactorizedSolver`: an escalating
*signed* diagonal shift (regularisation respecting the quasi-definite sign
structure) whose solution is accepted only when the residual on the unshifted
system is small.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from repro.mips.linsolve import BlockSolveReport, KKTSolver, as_planes
from repro.utils.sparse import (
    batched_matvec,
    same_pattern,
    symmetric_lower_map,
    transpose_plan,
)

__all__ = ["LDLSolver", "LDLSymbolic"]

#: Largest dense root: the elimination tree is cut at the lowest height above
#: which at most this many columns remain.  The knee of the measured curve —
#: cold case118s, ms per scenario at lockstep width 1 / 3 / 16 for a bound of
#: 0 (no root): 465 / 283 / 114, 64: 349 / 207 / 102, 96: 299 / 199 / 98,
#: 128: 230 / 169 / 84, 160: 228 / 155 / 86, 200: 218 / 161 / 96 — below it
#: the chain of one-column levels dominates, above it ``getrf``'s m³.
_ROOT_MAX = 128


# ------------------------------------------------------------------ symbolic
class _Level:
    """Per-level slices of the symbolic plans (one elimination-tree height)."""

    __slots__ = (
        "cols",
        "pair_a", "pair_b", "pair_starts", "pair_targets",
        "div_pos", "div_dslot",
        "fwd_pos", "fwd_col", "fwd_starts", "fwd_rows",
        "bwd_pos", "bwd_row", "bwd_starts", "bwd_cols",
    )


class LDLSymbolic:
    """Symbolic analysis of one KKT sparsity pattern under one ordering.

    Holds everything the numeric phase replays: the permuted lower-triangle
    gather (:func:`~repro.utils.sparse.symmetric_lower_map`), the elimination
    tree and the ``L`` pattern derived from it, the height-level schedule, the
    cut between the level-scheduled head and the dense root, the head's
    per-level gather/reduce index plans for the factorisation and both
    triangular solves, and the gathers that fill the root's Schur-complement
    plane.  Construction is two-stage so an ordering *candidate*
    can be costed from the cheap pattern analysis alone; :meth:`finalize`
    expands the numeric plans only for the chosen ordering.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int, perm: np.ndarray):
        self.n = int(n)
        self.perm = np.asarray(perm, dtype=np.int64)
        self.template_indptr = indptr
        self.template_indices = indices
        self._build_pattern(indptr, indices)
        self._finalized = False

    # -------------------------------------------------------- stage 1: pattern
    def _build_pattern(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        n = self.n
        low_indptr, low_rows, low_src = symmetric_lower_map(indptr, indices, n, self.perm)
        self.low_indptr = low_indptr
        self.low_rows = low_rows
        self.low_src = low_src
        low_cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(low_indptr))

        # Transpose view of the strict lower pattern: for each row j, the
        # columns k < j with a stored entry — the input the etree walk needs.
        strict = low_rows != low_cols
        srow, scol = low_rows[strict], low_cols[strict]
        order = np.argsort(srow, kind="stable")
        rptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(srow, minlength=n), out=rptr[1:])
        rcols = scol[order]

        # Elimination tree (Liu's algorithm with path compression).
        parent = np.full(n, -1, dtype=np.int64)
        ancestor = np.full(n, -1, dtype=np.int64)
        for j in range(n):
            for k in rcols[rptr[j]:rptr[j + 1]]:
                r = int(k)
                while ancestor[r] != -1 and ancestor[r] != j:
                    nxt = int(ancestor[r])
                    ancestor[r] = j
                    r = nxt
                if ancestor[r] == -1:
                    ancestor[r] = j
                    parent[r] = j
        self.parent = parent

        # Row patterns of L: row i holds every node on the tree paths from
        # the stored entries (i, k) up towards i.  Each walk step discovers a
        # new entry of L, so the total work is O(nnz(L)).
        marker = np.full(n, -1, dtype=np.int64)
        li: List[int] = []
        lj: List[int] = []
        for i in range(n):
            marker[i] = i
            for k in rcols[rptr[i]:rptr[i + 1]]:
                r = int(k)
                while marker[r] != i:
                    marker[r] = i
                    li.append(i)
                    lj.append(r)
                    r = int(parent[r])
        lrow = np.asarray(li, dtype=np.int64)
        lcol = np.asarray(lj, dtype=np.int64)
        # Canonical CSC order of L's strict lower pattern.
        order = np.lexsort((lrow, lcol))
        lrow, lcol = lrow[order], lcol[order]
        self.l_rows = lrow
        l_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lcol, minlength=n), out=l_indptr[1:])
        self.l_indptr = l_indptr
        self.l_keys = lcol * n + lrow  # sorted ascending by construction

        # Height levels: leaves are level 0, a parent sits above its children.
        level = np.zeros(n, dtype=np.int64)
        for j in range(n):
            p = parent[j]
            if p >= 0 and level[p] <= level[j]:
                level[p] = level[j] + 1
        self.level = level

        # Dense root: every column at height >= ``cut``.  Heights grow towards
        # the tree's roots, so the set is closed under ancestry — each ``L``
        # row index of a root column is a root column — and the block it spans
        # is eliminated by one pivoted dense LU instead of one step per level.
        at_or_above = np.cumsum(np.bincount(level)[::-1])[::-1]
        self.cut = int(np.count_nonzero(at_or_above > _ROOT_MAX))
        self.root = np.flatnonzero(level >= self.cut)

        counts = np.diff(l_indptr)[level < self.cut]
        #: Heuristic numeric-phase cost of the head: contribution pairs
        #: dominate the arithmetic, levels the per-step Python overhead.
        self.cost = float(np.sum(counts * (counts + 1) // 2)) + 150.0 * self.cut

    # ---------------------------------------------------------- stage 2: plans
    def finalize(self) -> "LDLSymbolic":
        """Expand the head's per-level plans and the root's gathers (idempotent)."""
        if self._finalized:
            return self
        n, cut, level, root = self.n, self.cut, self.level, self.root
        m = root.size
        root_pos = np.full(n, -1, dtype=np.int64)
        root_pos[root] = np.arange(m, dtype=np.int64)

        # Only head columns keep ``L`` slots in the column-space plane.
        all_cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.l_indptr))
        head = level[all_cols] < cut
        l_rows, l_cols, l_keys = self.l_rows[head], all_cols[head], self.l_keys[head]
        self.nnz_head = int(l_rows.size)
        l_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(l_cols, minlength=n), out=l_indptr[1:])

        # Initial scatter: original CSC data -> column-space plane positions
        # (head columns) or the flattened row-major Schur plane (root columns;
        # a root column's stored rows are its ancestors, hence root too).
        low_cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.low_indptr))
        low_rows = self.low_rows
        diag = low_rows == low_cols
        self.diag_cols, self.diag_src = low_cols[diag], self.low_src[diag]
        in_head = level[low_cols] < cut
        q = np.searchsorted(l_keys, (low_cols * n + low_rows)[in_head])
        self.init_tpos = np.where(diag[in_head], low_cols[in_head], n + q)
        self.init_src = self.low_src[in_head]
        self.root_tpos = root_pos[low_rows[~in_head]] * m + root_pos[low_cols[~in_head]]
        self.root_src = self.low_src[~in_head]
        self.root_diag = np.arange(m, dtype=np.int64) * (m + 1)

        # Contribution pairs: for head column k with L rows r_0 < … < r_{m-1},
        # every ordered pair (a <= b) contributes W[r_b, k] * V[r_a, k] to
        # output (r_b, r_a) — the D slot of r_a when a == b.  The fill rule
        # guarantees the target exists in L's pattern.  Applied at level(r_a)
        # when r_a is a head column, otherwise (r_b is then root as well)
        # accumulated into the Schur plane once the head is done.
        pa: List[np.ndarray] = []
        pb: List[np.ndarray] = []
        tcol: List[np.ndarray] = []
        trow: List[np.ndarray] = []
        for k in np.flatnonzero(np.diff(l_indptr)):
            lo, hi = int(l_indptr[k]), int(l_indptr[k + 1])
            rows_k = l_rows[lo:hi]
            ii, jj = np.triu_indices(hi - lo)
            pa.append(n + lo + jj)
            pb.append(n + lo + ii)
            tcol.append(rows_k[ii])
            trow.append(rows_k[jj])
        empty = np.zeros(0, dtype=np.int64)
        pair_a, pair_b, t_col, t_row = (
            np.concatenate(part) if part else empty for part in (pa, pb, tcol, trow)
        )
        t_level = level[t_col]
        to_head = t_level < cut
        t_pos = np.where(
            to_head,
            np.where(
                t_row == t_col, t_col, n + np.searchsorted(l_keys, t_col * n + t_row)
            ),
            root_pos[t_row] * m + root_pos[t_col],
        )

        def grouped(sel: np.ndarray, keys: np.ndarray):
            """``sel`` stably sorted by ``keys[sel]``, run starts, run keys."""
            order = sel[np.argsort(keys[sel], kind="stable")]
            sorted_keys = keys[order]
            fresh = np.ones(sorted_keys.size, dtype=bool)
            fresh[1:] = sorted_keys[1:] != sorted_keys[:-1]
            return order, np.flatnonzero(fresh), sorted_keys[fresh]

        order, self.schur_starts, self.schur_targets = grouped(
            np.flatnonzero(~to_head), t_pos
        )
        self.schur_a, self.schur_b = pair_a[order], pair_b[order]
        # The plans fill the Schur plane's lower triangle; getrf wants both.
        filled = np.union1d(self.root_tpos, self.schur_targets)
        row, col = np.divmod(filled, max(m, 1))
        self.root_lower, self.root_upper = filled[row > col], (col * m + row)[row > col]

        entry_level = level[l_cols]
        self.levels: List[_Level] = []
        for lev in range(cut):
            plan = _Level()
            # Columns finalised at this level: every contribution targeting
            # them has landed by this level's pair step, so their pivots are
            # final before this level's divisions (the clamp hook point).
            plan.cols = np.flatnonzero(level == lev)
            # --- factor: contributions whose target column sits at this level
            order, plan.pair_starts, plan.pair_targets = grouped(
                np.flatnonzero(t_level == lev), t_pos
            )
            plan.pair_a, plan.pair_b = pair_a[order], pair_b[order]
            # --- factor: division of this level's columns by their D
            esel = np.flatnonzero(entry_level == lev)
            plan.div_pos = n + esel
            plan.div_dslot = l_cols[esel]
            # --- forward solve: this level's entries scatter x[col] into rows
            order, plan.fwd_starts, plan.fwd_rows = grouped(esel, l_rows)
            plan.fwd_pos, plan.fwd_col = n + order, l_cols[order]
            # --- backward solve: entries grouped by their own column (esel is
            # ascending and l_cols nondecreasing: already column-contiguous).
            order, plan.bwd_starts, plan.bwd_cols = grouped(esel, l_cols)
            plan.bwd_pos, plan.bwd_row = n + order, l_rows[order]
            self.levels.append(plan)

        # CSR matvec plan of the *full* template (refinement residuals): the
        # template's CSC arrays read as CSR describe Aᵀ, and transposing that
        # fixed pattern once yields A's CSR with a pure data gather.
        at_csr = sp.csr_matrix(
            (np.arange(1.0, self.template_indices.size + 1.0),
             self.template_indices, self.template_indptr),
            shape=(n, n),
        )
        self.csr_order, self.csr_indptr, self.csr_indices = transpose_plan(at_csr)
        self._finalized = True
        return self


def _etree_perms(csc: sp.csc_matrix, ordering: str) -> List[np.ndarray]:
    """Candidate elimination orders for ``csc``'s symmetrised pattern."""
    n = csc.shape[0]
    natural = np.arange(n, dtype=np.int64)
    if ordering == "natural" or n <= _ROOT_MAX:  # all root: order is moot
        return [natural]
    pattern = sp.csc_matrix(
        (np.ones(csc.nnz), csc.indices, csc.indptr), shape=csc.shape
    )
    spd_like = (pattern + pattern.T + float(n) * sp.identity(n, format="csc")).tocsc()
    cands: List[np.ndarray] = []
    if ordering in ("auto", "mmd"):
        try:
            lu = spla.splu(spd_like, permc_spec="MMD_AT_PLUS_A")
            perm_c = np.asarray(lu.perm_c, dtype=np.int64)
            inv = np.empty_like(perm_c)
            inv[perm_c] = np.arange(n, dtype=np.int64)
            cands.append(inv)
        except Exception:  # pragma: no cover - splu failure on a benign SPD-like
            pass
    if ordering in ("auto", "rcm"):
        try:
            from scipy.sparse.csgraph import reverse_cuthill_mckee

            rcm = np.asarray(
                reverse_cuthill_mckee(spd_like.tocsr(), symmetric_mode=True),
                dtype=np.int64,
            )
            cands.append(rcm)
        except Exception:  # pragma: no cover - csgraph unavailable
            pass
    if not cands:
        cands.append(natural)
    return cands


#: Module-level symbolic cache: analyses are pure functions of the pattern
#: and the ordering strategy, so pattern-identical solver instances (one per
#: ``mips_batch()`` call) share them instead of re-walking the elimination tree.
_SYM_CACHE: "OrderedDict[tuple, LDLSymbolic]" = OrderedDict()
_SYM_LOCK = threading.Lock()
_SYM_CACHE_MAX = 32


def _symbolic_for_pattern(csc: sp.csc_matrix, ordering: str) -> LDLSymbolic:
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(csc.indptr).tobytes())
    digest.update(np.ascontiguousarray(csc.indices).tobytes())
    key = (csc.shape, csc.nnz, ordering, digest.hexdigest())
    with _SYM_LOCK:
        sym = _SYM_CACHE.get(key)
        if sym is not None:
            _SYM_CACHE.move_to_end(key)
            return sym
    candidates = [
        LDLSymbolic(csc.indptr, csc.indices, csc.shape[0], perm)
        for perm in _etree_perms(csc, ordering)
    ]
    sym = min(candidates, key=lambda s: s.cost).finalize()
    with _SYM_LOCK:
        _SYM_CACHE[key] = sym
        while len(_SYM_CACHE) > _SYM_CACHE_MAX:
            _SYM_CACHE.popitem(last=False)
    return sym


# ------------------------------------------------------------------- numeric
class LDLNumeric:
    """One numeric factorisation of a ``(B, nnz)`` data plane.

    ``W`` holds the head's *undivided* column values (slot ``j < n`` is
    ``D[j]``, slots ``n + q`` the pre-division entries ``L[i, k]·D[k]``); ``V``
    holds the divided ``L`` entries.  Keeping both planes lets the contribution
    ``L[i,k]·D[k]·L[j,k]`` be formed as ``W · V`` with no diagonal gather.
    ``lu[b]`` / ``piv[b]`` are LAPACK's ``getrf`` factors of row ``b``'s root
    block (its Schur complement after the head), stored transposed — the block
    is symmetric, so the C-ordered plane row *is* the Fortran-ordered input —
    and all-NaN where ``getrf`` met an exactly zero pivot.
    """

    __slots__ = ("sym", "W", "V", "lu", "piv")

    def __init__(
        self, sym: LDLSymbolic, W: np.ndarray, V: np.ndarray, lu: np.ndarray, piv: np.ndarray
    ):
        self.sym = sym
        self.W = W
        self.V = V
        self.lu = lu
        self.piv = piv

    def solve(self, X: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """``L D Lᵀ`` solve of the ``(k, n)`` right-hand sides, head and root.

        The factorisation solves its own batch row-for-row.  ``rows``
        restricts it to a subset of its planes (``X`` already holds just those
        rows) — the refinement loop uses it so late polish steps only pay for
        the rows still active.  Head operations are element-wise along the
        batch axis and the root is one ``getrs`` per row, so each row's
        solution is bit-independent of its batch neighbours and of any
        ``rows`` slicing.
        """
        sym = self.sym
        if rows is None:
            V, D = self.V, self.W[:, : sym.n]
        else:
            V, D = self.V[rows], self.W[rows, : sym.n]
        x = np.ascontiguousarray(X[:, sym.perm], dtype=float)
        for plan in sym.levels:
            if plan.fwd_pos.size:
                contrib = V[:, plan.fwd_pos] * x[:, plan.fwd_col]
                x[:, plan.fwd_rows] -= np.add.reduceat(contrib, plan.fwd_starts, axis=1)
        x /= D
        if sym.root.size:
            xr = x[:, sym.root]
            for i in range(xr.shape[0]):
                b = i if rows is None else rows[i]
                xr[i] = dgetrs(self.lu[b].T, self.piv[b], xr[i])[0]
            x[:, sym.root] = xr
        for plan in reversed(sym.levels):
            if plan.bwd_pos.size:
                contrib = V[:, plan.bwd_pos] * x[:, plan.bwd_row]
                x[:, plan.bwd_cols] -= np.add.reduceat(contrib, plan.bwd_starts, axis=1)
        out = np.empty_like(x)
        out[:, sym.perm] = x
        return out


def _factor_planes(
    sym: LDLSymbolic,
    data_plane: np.ndarray,
    shift: Optional[np.ndarray] = None,
    clamp: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    clamped_out: Optional[np.ndarray] = None,
) -> LDLNumeric:
    """Numeric phase: level-scheduled batched head, then one dense LU per row.

    ``shift`` is an optional ``(B, n)`` signed diagonal shift (the regularised
    retry path).  ``clamp`` is an optional ``(eps, sign)`` pair of ``(B, n)``
    planes implementing qdldl-style dynamic pivot regularisation: at each
    level, pivots just finalised with ``|d| < eps`` are replaced by
    ``sign · eps`` *before* their column divides — only genuinely degenerate
    pivots are perturbed, healthy ones keep full accuracy.  Rows where any
    clamp fired are flagged in ``clamped_out`` (a ``(B,)`` bool array).  The
    root block pivots instead of clamping.  Singular pivots that remain
    surface as zeros/NaNs in the planes and factors, so one batched call
    factors healthy and singular systems alike and the caller reads failure
    off the (non-finite) solutions.
    """
    B = data_plane.shape[0]
    n, m = sym.n, sym.root.size
    W = np.zeros((B, n + sym.nnz_head))
    W[:, sym.init_tpos] = data_plane[:, sym.init_src]
    S = np.zeros((B, m * m))
    S[:, sym.root_tpos] = data_plane[:, sym.root_src]
    if shift is not None:
        W[:, :n] += shift
        S[:, sym.root_diag] += shift[:, sym.root]
    # The root block carries its own diagonal; its D slots divide by one.
    W[:, sym.root] = 1.0
    V = np.zeros_like(W)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for plan in sym.levels:
            if plan.pair_a.size:
                contrib = W[:, plan.pair_a] * V[:, plan.pair_b]
                W[:, plan.pair_targets] -= np.add.reduceat(
                    contrib, plan.pair_starts, axis=1
                )
            if clamp is not None and plan.cols.size:
                eps, sign = clamp
                d = W[:, plan.cols]
                tiny = np.abs(d) < eps[:, plan.cols]
                if tiny.any():
                    W[:, plan.cols] = np.where(
                        tiny, sign[:, plan.cols] * eps[:, plan.cols], d
                    )
                    if clamped_out is not None:
                        clamped_out |= tiny.any(axis=1)
            if plan.div_pos.size:
                V[:, plan.div_pos] = W[:, plan.div_pos] / W[:, plan.div_dslot]
        if sym.schur_a.size:
            contrib = W[:, sym.schur_a] * V[:, sym.schur_b]
            S[:, sym.schur_targets] -= np.add.reduceat(
                contrib, sym.schur_starts, axis=1
            )
    S[:, sym.root_upper] = S[:, sym.root_lower]
    lu = S.reshape(B, m, m)
    piv = np.zeros((B, m), dtype=np.int32)
    for b in range(B if m else 0):
        # ``lu[b].T`` is Fortran-contiguous, so getrf overwrites it and the
        # write-back is a no-op; it only copies if f2py ever hands back a copy.
        factor, piv[b], info = dgetrf(lu[b].T, overwrite_a=True)
        lu[b].T[...] = factor
        if info:
            lu[b] = np.nan
    return LDLNumeric(sym, W, V, lu, piv)


def _refine_rows(
    numeric: LDLNumeric,
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    x: np.ndarray,
    tol_rel: float,
    max_steps: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Guarded per-row iterative refinement against the true matrix.

    Every accept/stop decision is row-local (a row freezes once it converges
    or stops improving), so a row's refined solution is independent of which
    other rows share the batch — the same invariance the factorisation
    guarantees.  Returns ``(x, residual_inf, scale)`` per row and the number
    of row back-substitutions spent.
    """
    r = rhs - matvec(x)
    rnorm = np.abs(r).max(axis=1)
    scale = 1.0 + np.abs(rhs).max(axis=1)
    idx = np.flatnonzero(np.isfinite(rnorm) & (rnorm > tol_rel * scale))
    solves = 0
    for _ in range(max_steps):
        if idx.size == 0:
            break
        solves += idx.size
        # Compress to the still-active rows: late polish steps typically
        # chase one or two stragglers, so solving only those planes turns an
        # O(B) tail into an O(active) one without changing any row's result.
        rows = None if idx.size == rhs.shape[0] else idx
        dx = numeric.solve(r[idx], rows=rows)
        x_cand = x[idx] + dx
        r_cand = rhs[idx] - matvec(x_cand, rows=rows)
        cnorm = np.abs(r_cand).max(axis=1)
        prev = rnorm[idx]
        improved = np.isfinite(cnorm) & (cnorm < prev)
        sel = idx[improved]
        x[sel] = x_cand[improved]
        r[sel] = r_cand[improved]
        rnorm[sel] = cnorm[improved]
        # A refinable system contracts by orders of magnitude per step; a row
        # creeping down by mere percents is riding an unstable factor and will
        # never reach the target — freeze it now (the caller's acceptance
        # check decides whether where it stopped is good enough).
        contracting = cnorm[improved] <= 0.3 * prev[improved]
        keep = sel[contracting]
        idx = keep[rnorm[keep] > tol_rel * scale[keep]]
    return x, rnorm, scale, solves


# -------------------------------------------------------------------- solver
class LDLSolver(KKTSolver):
    """Same-pattern LDLᵀ refactorisation backend (``kkt_solver="ldl"``).

    Every :meth:`solve_blocks` call shares one symbolic analysis per pattern
    and the batched numeric phase (level-scheduled head, dense root).  See the
    module docstring for the algorithm; see
    :class:`~repro.mips.linsolve.FactorizedSolver` for the regularisation
    contract this backend mirrors (signed shifts instead of unsigned ones —
    the quasi-definite analogue).

    Parameters mirror the reference backend's; ``ordering`` selects the
    fill-reducing candidate set (``"auto"`` costs minimum-degree against
    reverse-Cuthill-McKee and picks the cheaper numeric phase).
    """

    name = "ldl"

    #: Relative residual target of the refinement polish — four orders below
    #: ``residual_tol`` and the MIPS termination tolerances (1e-6), which is
    #: what the trajectories are sensitive to; the last two digits down to
    #: 1e-12 cost a further polish backsolve on most iterations and moved no
    #: iteration count of the parity corpus.
    refine_tol = 1e-10
    #: Refinement step cap (rows freeze on non-improvement well before this).
    max_refine_steps = 25
    #: Dynamic pivot-clamp threshold (relative to ``1 + |diag|``): a pivot
    #: whose finalised magnitude falls below it is replaced by the signed
    #: threshold, keeping the head's no-pivoting LDLᵀ away from the exact zero
    #: pivots of the constraint block while leaving healthy pivots untouched;
    #: refinement removes the perturbation from clamped rows' solutions.
    pivot_clamp = 1e-13

    def __init__(
        self,
        regularization: float = 1e-8,
        reg_growth: float = 100.0,
        max_retries: int = 3,
        residual_tol: float = 1e-6,
        ordering: str = "auto",
    ) -> None:
        super().__init__()
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        if reg_growth <= 1:
            raise ValueError("reg_growth must exceed 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if ordering not in ("auto", "mmd", "rcm", "natural"):
            raise ValueError("ordering must be one of auto|mmd|rcm|natural")
        self.regularization = regularization
        self.reg_growth = reg_growth
        self.max_retries = max_retries
        self.residual_tol = residual_tol
        self.ordering = ordering
        self._sym: Optional[LDLSymbolic] = None
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        #: Numeric factorisations that reused a previously analysed pattern.
        self.symbolic_reuses = 0
        #: Numeric (re)factorisations performed, batched calls counting one.
        self.numeric_refactorizations = 0
        #: ``solve_blocks`` calls (one per MIPS iteration, scalar or lockstep).
        self.block_factorizations = 0
        #: Row back-substitutions spent on refinement polish steps.
        self.refinement_solves = 0
        #: Factorised rows in which the dynamic pivot clamp fired.
        self.pivot_clamps = 0

    # ----------------------------------------------------------------- symbolic
    def _symbolic(self, csc: sp.csc_matrix) -> LDLSymbolic:
        if self._sym is not None and same_pattern(csc, self._indptr, self._indices):
            self.symbolic_reuses += 1
            return self._sym
        self._sym = _symbolic_for_pattern(csc, self.ordering)
        self._indptr = csc.indptr
        self._indices = csc.indices
        return self._sym

    def _matvec_for(self, sym: LDLSymbolic, data_plane: np.ndarray):
        """Row-wise residual matvec ``X ↦ A_b @ X[b]`` over the CSR plan."""
        csr_data = np.ascontiguousarray(data_plane[:, sym.csr_order])

        def matvec(X: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
            data = csr_data if rows is None else csr_data[rows]
            return batched_matvec(data, sym.csr_indptr, sym.csr_indices, X)

        return matvec

    # ------------------------------------------------------------ factor + heal
    def _solve_with_recovery(
        self, sym: LDLSymbolic, data_plane: np.ndarray, rhs_plane: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float, float]:
        """Factor, refine and recover the whole batch; the core numeric path.

        LDLᵀ without pivoting meets *exact* zero pivots whenever the ordering
        eliminates a zero-diagonal constraint row before its coupled primal
        rows, so the numeric phase applies qdldl-style dynamic pivot
        clamping: a pivot whose finalised magnitude falls below
        ``pivot_clamp`` (scaled by the row's original diagonal) is replaced
        by the signed threshold — negative for the constraint block,
        preserving quasi-definite inertia.  Only degenerate pivots are
        perturbed, so healthy rows keep full factorisation accuracy, and
        guarded refinement against the *unperturbed* matrix polishes every
        row to ``refine_tol``.

        The AC-OPF Hessian is not always positive definite, so a fixed-order
        factorisation can also go *unstable* (element growth) on a
        near-singular iteration even without zero pivots.  Both failure modes
        surface the same way — the refined residual stalls above the
        acceptance threshold — and both are healed the same way: refactorise the
        affected rows under an escalating **signed** diagonal shift (the
        quasi-definite analogue of ``FactorizedSolver``'s regularised retry),
        which bounds growth, then refine against the true matrix again.

        Returns ``(x, accepted, factor_seconds, solve_seconds)``.
        Perturbed rows (clamped or shift-recovered) face the same
        unperturbed-residual acceptance check ``FactorizedSolver`` applies —
        failures come back NaN; ``accepted`` flags shift recoveries that
        passed (the rows reported as regularisations — pivot clamps are an
        ordering artifact of the quasi-definite KKT, not a conditioning
        event).  The timing pair splits the call's wall into
        numeric-factorisation vs backsolve/refinement time.
        """
        t_enter = time.perf_counter()
        factor_t = 0.0
        B = data_plane.shape[0]
        diag0 = np.zeros((B, sym.n))
        diag0[:, sym.diag_cols] = data_plane[:, sym.diag_src]
        # Zero (structurally absent) diagonals are the constraint block:
        # clamp/shift them negative, preserving quasi-definite inertia.
        sign = np.where(diag0 > 0.0, 1.0, -1.0)
        dscale = 1.0 + np.abs(diag0)
        eps = self.pivot_clamp * dscale
        clamped = np.zeros(B, dtype=bool)
        t0 = time.perf_counter()
        numeric = _factor_planes(
            sym, data_plane, clamp=(eps, sign), clamped_out=clamped
        )
        factor_t += time.perf_counter() - t0
        self.numeric_refactorizations += 1
        self.pivot_clamps += int(clamped.sum())
        matvec = self._matvec_for(sym, data_plane)
        x = numeric.solve(rhs_plane)
        x, rnorm, scale, solves = _refine_rows(
            numeric, matvec, rhs_plane, x, self.refine_tol, self.max_refine_steps
        )
        self.refinement_solves += solves
        finite = np.isfinite(x).all(axis=1) & np.isfinite(rnorm)
        # Retry only rows that would fail the acceptance check below: an
        # ill-conditioned-but-refinable system (common on the first couple of
        # warm-start iterations, where the factor can be unstable yet
        # refinement still lands well under ``residual_tol``) must NOT trigger
        # the shift path — a signed shift on an indefinite Hessian block can
        # push eigenvalues *toward* zero, so speculative retries both waste
        # factorisations and produce worse factors.
        stalled = ~finite | (rnorm > self.residual_tol * scale)
        shifted = np.zeros(B, dtype=bool)
        if stalled.any() and self.max_retries:
            reg = self.regularization
            bad = np.flatnonzero(stalled)
            for _ in range(self.max_retries):
                t0 = time.perf_counter()
                retry = _factor_planes(
                    sym,
                    data_plane[bad],
                    shift=(sign * (reg * dscale))[bad],
                    clamp=(eps[bad], sign[bad]),
                )
                factor_t += time.perf_counter() - t0
                self.numeric_refactorizations += 1
                xb = retry.solve(rhs_plane[bad])
                xb, rb, sb, solves = _refine_rows(
                    retry, self._matvec_for(sym, data_plane[bad]), rhs_plane[bad], xb,
                    self.refine_tol, self.max_refine_steps,
                )
                self.refinement_solves += solves
                okb = np.isfinite(xb).all(axis=1) & np.isfinite(rb)
                better = okb & (~finite[bad] | (rb < rnorm[bad]))
                rows = bad[better]
                x[rows] = xb[better]
                rnorm[rows] = rb[better]
                finite[rows] = True
                shifted[rows] = True
                healed = okb & (rb <= self.residual_tol * sb)
                bad = bad[~healed]
                if bad.size == 0:
                    break
                reg *= self.reg_growth
        # Same acceptance rule as FactorizedSolver: a perturbed factor's
        # solution counts only when the residual on the *unperturbed* system
        # is small; otherwise the row fails loudly (NaN).
        rel_ok = finite & (rnorm <= self.residual_tol * scale)
        dead = ~finite | ((clamped | shifted) & ~rel_ok)
        accepted = shifted & rel_ok & ~dead
        if dead.any():
            x[dead] = np.nan
        solve_t = (time.perf_counter() - t_enter) - factor_t
        return x, accepted, factor_t, solve_t

    def solve_blocks(
        self, template: sp.csc_matrix, data_plane: np.ndarray, rhs_plane: np.ndarray
    ) -> BlockSolveReport:
        """One batched factorisation, refinement and recovery for ``B`` blocks.

        The numeric phase is deterministic per row and independent of batch
        composition, so a row's solution is the same bits at any width.
        """
        data_plane, rhs_plane = as_planes(data_plane, rhs_plane)
        start = time.perf_counter()
        sym = self._symbolic(template)
        sym_t = time.perf_counter() - start
        solutions, accepted, factor_t, solve_t = self._solve_with_recovery(
            sym, data_plane, rhs_plane
        )
        self.block_factorizations += 1
        self.factor_seconds = sym_t + factor_t
        self.backsolve_seconds = solve_t
        self.regularizations += int(accepted.sum())
        failed = [int(b) for b in np.flatnonzero(~np.isfinite(solutions).all(axis=1))]
        return BlockSolveReport(solutions, failed, accepted.astype(int))
