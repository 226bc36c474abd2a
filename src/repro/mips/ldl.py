"""The KKT solve of the MIPS loop: same-pattern sparse LDLᵀ refactorisation.

Every MIPS Newton iteration solves one symmetric-indefinite sparse system per
scenario::

    [ M   Jgᵀ ] [ dx   ]   [ -N ]
    [ Jg   0  ] [ dlam ] = [ -g ]

whose sparsity pattern is fixed once the constraint structure is known.
:class:`LDLSolver` is the one solve :func:`~repro.mips.batch.mips_batch`
builds, over the :class:`LDLSymbolic` analysis its
:class:`~repro.mips.batch.LockstepPlan` holds, and
:meth:`LDLSolver.solve_blocks` is its entry point: ``B`` same-pattern systems
arrive as ``(B, nnz)`` data and ``(B, n)`` right-hand-side planes, and a
:class:`BlockSolveReport` returns one solution row per system, the rows that
stayed unsolvable, the regularised recoveries per row — and the factor, so
the caller can back-substitute further right-hand sides of its rows with
:meth:`BlockSolveReport.resolve`.  Factorisation and back-substitution are one
call: a perturbed factor is accepted only if its solution's residual on the
*unperturbed* system is small, so the right-hand side can trigger a
refactorisation.  The report carries the call's factorisation seconds (the
Fig. 5 breakdown).  Which right-hand side a row solves is the MIPS loop's
business, not the solve's.  The parity suites check this solve against an
independent SuperLU reference kept with the tests (``tests/reference/kkt.py``).

SuperLU redoes ordering and numeric *pivoting* from scratch every MIPS
iteration because scipy exposes no same-pattern refactorisation.
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
``B`` is — what made this solve lose to SuperLU at lockstep widths 1–3.  So
the tree is cut at the lowest height above which at most ``_ROOT_MAX`` columns
remain (the **dense root**, closed under ancestry): every head→root
contribution lands in one ``(B, m, m)`` Schur-complement plane with a single
gather/``reduceat``, and each row's block is factorised and back-substituted
by LAPACK's pivoted ``getrf``/``getrs``.  A KKT of order ≤ ``_ROOT_MAX``
(case9, case14) is all root: one dense LU per row.  Per-row arithmetic is
element-wise along the batch axis in the head and one LAPACK call per row in
the root, so each system's numerics are independent of which other systems
share the batch — the row-isolation contract of :meth:`LDLSolver.solve_blocks`
that the lockstep loop relies on when it enrolls and retires scenarios between
iterations (a scalar solve is its one-row case) — and the Python-step count per
factorisation is the number of head levels, not ``n`` or ``nnz(L)``.

Every step of the numeric phase — the initial scatter into the ``W`` and
Schur planes, each head level's contribution gather, clamp and division, the
Schur scatter and its symmetrisation, both triangular solves (``rows=``
included) and the refinement residual — replays a fixed index map with the
primitives of :mod:`repro.utils.planes`: column gathers are
``plane.take(idx, axis=1)``, scatters write through flat offsets into the
C-contiguous plane (the symbolic analysis holds its scatter targets as
:class:`~repro.utils.planes.Targets`), and segment sums are
``np.add.reduceat``.  NumPy's ``plane[:, idx]`` gives the same bits several
times slower on planes of two or more rows.  The primitives only move data,
so every row's factor and solution stay the same bits as with advanced
indexing.  ``reduceat`` stays although a CSR or sequential segment sum is
faster on wide planes: their summation order differs, and Schur entries
near 1e17 then move by units in the last place, which changes trajectories.

Exact zero pivots in the head (a zero-diagonal constraint row eliminated
before its coupled primal rows) are handled by qdldl-style **dynamic pivot
clamping**: a pivot whose finalised magnitude is below a tiny signed threshold
is replaced by the threshold — negative on the constraint block, preserving
quasi-definite inertia — so only degenerate pivots are perturbed and healthy
rows keep full factorisation accuracy (the root pivots instead).  Solutions
are polished with guarded per-row iterative refinement against the *true*
(unsymmetrised, unperturbed) matrix to a relative residual of ``refine_tol``,
so the solve reproduces the SuperLU reference's trajectories at solver
precision: the parity suite runs the full QP/OPF corpus against it with
identical iteration counts.  Singular systems are retried under an escalating
*signed* diagonal shift (regularisation respecting the quasi-definite sign
structure) whose solution is accepted only when the residual on the unshifted
system is small.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from repro.utils import planes
from repro.utils.planes import Targets
from repro.utils.sparse import BatchedCSR, symmetric_lower_map, transpose_plan

__all__ = ["LDLSolver", "LDLSymbolic", "BlockSolveReport"]


def as_planes(data_plane: np.ndarray, rhs_plane: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(B, nnz)`` / ``(B, n)`` float planes with C-contiguous rows.

    Plane slices produced by fancy indexing may be column-major; LAPACK needs
    each row contiguous, so :meth:`LDLSolver.solve_blocks` normalises the
    layout once on entry.
    """
    data_plane = np.ascontiguousarray(np.atleast_2d(np.asarray(data_plane, dtype=float)))
    rhs_plane = np.ascontiguousarray(np.atleast_2d(np.asarray(rhs_plane, dtype=float)))
    if data_plane.shape[0] != rhs_plane.shape[0]:
        raise ValueError("data plane and rhs plane must have matching batch sizes")
    return data_plane, rhs_plane


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
    plane.  :meth:`analyse` builds the analysis of a pattern.  Construction
    is two-stage so an ordering *candidate* can be costed from the cheap
    pattern analysis alone; :meth:`finalize` expands the numeric plans only
    for the chosen ordering.
    """

    @classmethod
    def analyse(cls, template: sp.csc_matrix) -> "LDLSymbolic":
        """The analysis of ``template``'s pattern (canonical CSC) under the
        candidate ordering with the cheaper numeric phase."""
        candidates = [
            cls(template.indptr, template.indices, template.shape[0], perm)
            for perm in _etree_perms(template)
        ]
        return min(candidates, key=lambda s: s.cost).finalize()

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
        self.diag_cols, self.diag_src = Targets(low_cols[diag]), self.low_src[diag]
        in_head = level[low_cols] < cut
        q = np.searchsorted(l_keys, (low_cols * n + low_rows)[in_head])
        self.init_tpos = Targets(np.where(diag[in_head], low_cols[in_head], n + q))
        self.init_src = self.low_src[in_head]
        root_tpos = root_pos[low_rows[~in_head]] * m + root_pos[low_cols[~in_head]]
        self.root_tpos = Targets(root_tpos)
        self.root_src = self.low_src[~in_head]
        self.root_diag = Targets(np.arange(m, dtype=np.int64) * (m + 1))
        # The root columns as scatter targets — their D slots in W and
        # their entries of a permuted solution, two plane widths with an
        # offset cache each — and the order that un-permutes a solution.
        self.root_dslots = Targets(root)
        self.root_xslots = Targets(root)
        self.iperm = np.empty_like(self.perm)
        self.iperm[self.perm] = np.arange(n, dtype=np.int64)

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

        order, self.schur_starts, schur_targets = grouped(
            np.flatnonzero(~to_head), t_pos
        )
        self.schur_targets = Targets(schur_targets)
        self.schur_a, self.schur_b = pair_a[order], pair_b[order]
        # The plans fill the Schur plane's lower triangle; getrf wants both.
        filled = np.union1d(root_tpos, schur_targets)
        row, col = np.divmod(filled, max(m, 1))
        self.root_lower = filled[row > col]
        self.root_upper = Targets((col * m + row)[row > col])

        entry_level = level[l_cols]
        self.levels: List[_Level] = []
        for lev in range(cut):
            plan = _Level()
            # Columns finalised at this level: every contribution targeting
            # them has landed by this level's pair step, so their pivots are
            # final before this level's divisions (the clamp hook point).
            plan.cols = Targets(np.flatnonzero(level == lev))
            # --- factor: contributions whose target column sits at this level
            order, plan.pair_starts, targets = grouped(
                np.flatnonzero(t_level == lev), t_pos
            )
            plan.pair_targets = Targets(targets)
            plan.pair_a, plan.pair_b = pair_a[order], pair_b[order]
            # --- factor: division of this level's columns by their D
            esel = np.flatnonzero(entry_level == lev)
            plan.div_pos = Targets(n + esel)
            plan.div_dslot = l_cols[esel]
            # --- forward solve: this level's entries scatter x[col] into rows
            order, plan.fwd_starts, targets = grouped(esel, l_rows)
            plan.fwd_rows = Targets(targets)
            plan.fwd_pos, plan.fwd_col = n + order, l_cols[order]
            # --- backward solve: entries grouped by their own column (esel is
            # ascending and l_cols nondecreasing: already column-contiguous).
            order, plan.bwd_starts, targets = grouped(esel, l_cols)
            plan.bwd_cols = Targets(targets)
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
        self.csr_order, csr_indptr, csr_indices = transpose_plan(at_csr)
        self.csr = BatchedCSR(csr_indptr, csr_indices)
        self._finalized = True
        return self


def _etree_perms(csc: sp.csc_matrix) -> List[np.ndarray]:
    """Candidate elimination orders for ``csc``'s symmetrised pattern.

    Minimum degree and reverse Cuthill-McKee; :meth:`LDLSymbolic.analyse`
    keeps the one with the cheaper numeric phase.  A KKT of order at most
    ``_ROOT_MAX`` is all root, so its order is moot and stays natural.
    """
    n = csc.shape[0]
    natural = np.arange(n, dtype=np.int64)
    if n <= _ROOT_MAX:
        return [natural]
    pattern = sp.csc_matrix(
        (np.ones(csc.nnz), csc.indices, csc.indptr), shape=csc.shape
    )
    spd_like = (pattern + pattern.T + float(n) * sp.identity(n, format="csc")).tocsc()
    cands: List[np.ndarray] = []
    try:
        lu = spla.splu(spd_like, permc_spec="MMD_AT_PLUS_A")
        perm_c = np.asarray(lu.perm_c, dtype=np.int64)
        inv = np.empty_like(perm_c)
        inv[perm_c] = np.arange(n, dtype=np.int64)
        cands.append(inv)
    except Exception:  # pragma: no cover - splu failure on a benign SPD-like
        pass
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
        take = planes.take
        if rows is None:
            V, D = self.V, self.W[:, : sym.n]
        else:
            V, D = self.V.take(rows, axis=0), self.W[:, : sym.n].take(rows, axis=0)
        x = take(np.asarray(X, dtype=float), sym.perm)
        for plan in sym.levels:
            if plan.fwd_pos.size:
                contrib = take(V, plan.fwd_pos) * take(x, plan.fwd_col)
                plan.fwd_rows.sub(x, np.add.reduceat(contrib, plan.fwd_starts, axis=1))
        x /= D
        if sym.root.size:
            xr = take(x, sym.root)
            for i in range(xr.shape[0]):
                b = i if rows is None else rows[i]
                xr[i] = dgetrs(self.lu[b].T, self.piv[b], xr[i])[0]
            sym.root_xslots.put(x, xr)
        for plan in reversed(sym.levels):
            if plan.bwd_pos.size:
                contrib = take(V, plan.bwd_pos) * take(x, plan.bwd_row)
                plan.bwd_cols.sub(x, np.add.reduceat(contrib, plan.bwd_starts, axis=1))
        return take(x, sym.iperm)


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
    take = planes.take
    B = data_plane.shape[0]
    n, m = sym.n, sym.root.size
    W = np.zeros((B, n + sym.nnz_head))
    sym.init_tpos.put(W, take(data_plane, sym.init_src))
    S = np.zeros((B, m * m))
    sym.root_tpos.put(S, take(data_plane, sym.root_src))
    if shift is not None:
        W[:, :n] += shift
        sym.root_diag.add(S, take(shift, sym.root))
    # The root block carries its own diagonal; its D slots divide by one.
    sym.root_dslots.put(W, 1.0)
    V = np.zeros_like(W)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for plan in sym.levels:
            if plan.pair_a.size:
                contrib = take(W, plan.pair_a) * take(V, plan.pair_b)
                plan.pair_targets.sub(W, np.add.reduceat(contrib, plan.pair_starts, axis=1))
            if clamp is not None and plan.cols.size:
                eps, sign = clamp
                cols = plan.cols.idx
                d = take(W, cols)
                e = take(eps, cols)
                tiny = np.abs(d) < e
                if tiny.any():
                    plan.cols.put(W, np.where(tiny, take(sign, cols) * e, d))
                    if clamped_out is not None:
                        clamped_out |= tiny.any(axis=1)
            if plan.div_pos.size:
                plan.div_pos.put(V, take(W, plan.div_pos.idx) / take(W, plan.div_dslot))
        if sym.schur_a.size:
            contrib = take(W, sym.schur_a) * take(V, sym.schur_b)
            sym.schur_targets.sub(S, np.add.reduceat(contrib, sym.schur_starts, axis=1))
    sym.root_upper.put(S, take(S, sym.root_lower))
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
    matvec: Callable[..., np.ndarray],
    rhs: np.ndarray,
    x: np.ndarray,
    tol_rel: "float | np.ndarray",
    max_steps: int,
    planes_of: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Guarded per-row iterative refinement against the true matrix.

    Every accept/stop decision is row-local (a row freezes once it converges
    or stops improving), so a row's refined solution is independent of which
    other rows share the batch — the same invariance the factorisation
    guarantees.  ``planes_of`` names the factor's planes that the rows of
    ``rhs`` belong to (every plane, in order, when omitted).  Returns ``(x,
    residual_inf, scale)`` per row and the number of row back-substitutions
    spent.
    """
    r = rhs - matvec(x, rows=planes_of)
    rnorm = np.abs(r).max(axis=1)
    scale = 1.0 + np.abs(rhs).max(axis=1)
    target = tol_rel * scale
    idx = np.flatnonzero(np.isfinite(rnorm) & (rnorm > target))
    solves = 0
    for _ in range(max_steps):
        if idx.size == 0:
            break
        solves += idx.size
        # Compress to the still-active rows: late polish steps typically
        # chase one or two stragglers, so solving only those planes turns an
        # O(B) tail into an O(active) one without changing any row's result.
        if planes_of is not None:
            rows = planes_of[idx]
        else:
            rows = None if idx.size == rhs.shape[0] else idx
        dx = numeric.solve(r.take(idx, axis=0), rows=rows)
        x_cand = x.take(idx, axis=0) + dx
        r_cand = rhs.take(idx, axis=0) - matvec(x_cand, rows=rows)
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
        idx = keep[rnorm[keep] > target[keep]]
    return x, rnorm, scale, solves


class BlockSolveReport:
    """One :meth:`LDLSolver.solve_blocks` call: its solutions and its factor.

    ``solutions`` holds one row per block, ``failed`` lists the blocks
    whose system stayed unsolvable (their rows are NaN; every non-finite row
    counts), and ``regularizations`` counts the diagonal-shift recoveries
    accepted for each block.  ``perturbed`` flags the rows whose solution came from a
    perturbed factor (a pivot clamp fired, or a shifted retry).
    ``factor_seconds`` is the numeric-factorisation share of the call.
    :meth:`resolve` solves further right-hand sides of some rows on the
    factor each row's solution came from: the call's one factor holds, at a
    row whose solution came from a shifted retry, that retry's planes.  The three
    row outcomes are the caller's to overwrite; the first solutions stay
    with the factor.
    """

    __slots__ = (
        "solutions", "failed", "regularizations", "perturbed", "factor_seconds",
        "_solver", "_x", "_rhs", "_numeric", "_matvec",
    )

    def __init__(self, solver, x, rhs, regularizations, perturbed, numeric, matvec,
                 factor_seconds):
        self.solutions = x.copy()
        self.failed = [int(b) for b in np.flatnonzero(~np.isfinite(x).all(axis=1))]
        self.regularizations = regularizations
        self.perturbed = perturbed
        self.factor_seconds = factor_seconds
        self._solver = solver
        self._x, self._rhs = x, rhs
        self._numeric, self._matvec = numeric, matvec

    def resolve(
        self, rows: np.ndarray, rhs: np.ndarray, strict: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Solve a second right-hand side ``rhs`` of ``rows`` on the factor
        each row's first solve was accepted from.

        The solve is linear, so only the *change* of right-hand side is
        back-substituted, on top of the first solution: the residual it
        leaves is the first solve's plus the error of a solve with a smaller
        right-hand side (on cold case118s rows 1.5 polish steps per row
        follow, against 1.6 after a solve from scratch).  Refinement then
        runs to ``refine_tol`` as for a first solve.  Returns ``(x,
        passed)``: a row passes when its solution is finite and, where
        ``strict``, its residual on the unperturbed system is within
        ``residual_tol``.  Rows whose first solve failed have no factor.
        """
        solver = self._solver
        x = self._x[rows] + self._numeric.solve(rhs - self._rhs[rows], rows=rows)
        x, rnorm, scale, solves = _refine_rows(
            self._numeric, self._matvec, rhs, x, solver.refine_tol, solver.max_refine_steps,
            planes_of=rows,
        )
        solver.corrector_solves += rows.size
        solver.refinement_solves += solves
        finite = np.isfinite(x).all(axis=1) & np.isfinite(rnorm)
        return x, finite & (~strict | (rnorm <= solver.residual_tol * scale))


# -------------------------------------------------------------------- solver
class LDLSolver:
    """The KKT solve: same-pattern LDLᵀ refactorisation of ``B`` systems at once.

    A solver factorises data planes of the one pattern its
    :class:`LDLSymbolic` analysis describes, with the batched numeric phase
    (level-scheduled head, dense root); see the module docstring for the
    algorithm.  An instance lives for one
    :func:`~repro.mips.batch.mips_batch` call, and :meth:`telemetry` reports
    its work counters.  Its numerical constants are class attributes, not
    parameters.
    """

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
    #: First signed diagonal shift (relative to ``1 + |diag|``) of the
    #: recovery retry for rows whose refined residual stalls.
    regularization = 1e-8
    #: Multiplicative escalation of the shift between retries.
    reg_growth = 100.0
    #: Shifted refactorisations before a stalled row fails.
    max_retries = 3
    #: Relative residual on the unperturbed system a clamped or shifted row
    #: must reach to be accepted.
    residual_tol = 1e-6

    def __init__(self, symbolic: LDLSymbolic) -> None:
        #: The analysis of the one pattern this solver factorises.
        self.symbolic = symbolic
        #: Regularised recoveries accepted so far, over all calls and rows.
        self.regularizations = 0
        #: Numeric (re)factorisations performed, batched calls counting one.
        self.numeric_refactorizations = 0
        #: ``solve_blocks`` calls.
        self.block_factorizations = 0
        #: Row back-substitutions spent on refinement polish steps.
        self.refinement_solves = 0
        #: Row back-substitutions of second right-hand sides on the factor
        #: of the row's first solve (:meth:`BlockSolveReport.resolve`).
        self.corrector_solves = 0
        #: Factorised rows in which the dynamic pivot clamp fired.
        self.pivot_clamps = 0

    def telemetry(self) -> Dict[str, int]:
        """The work counters, surfaced as ``MIPSResult.kkt_telemetry`` for the
        Fig. 5 attribution."""
        return {
            "numeric_refactorizations": self.numeric_refactorizations,
            "block_factorizations": self.block_factorizations,
            "refinement_solves": self.refinement_solves,
            "corrector_solves": self.corrector_solves,
            "pivot_clamps": self.pivot_clamps,
        }

    def _matvec_for(self, data_plane: np.ndarray):
        """Row-wise residual matvec ``X ↦ A_b @ X[b]`` over the CSR plan."""
        sym = self.symbolic
        csr_data = planes.take(data_plane, sym.csr_order)

        def matvec(X: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
            data = csr_data if rows is None else csr_data.take(rows, axis=0)
            # A diverging row's plane or solution holds inf/NaN; refinement
            # reads its non-finite residual as failure, so it is no error.
            with np.errstate(over="ignore", invalid="ignore"):
                return sym.csr.matvec(data, X)

        return matvec

    def solve_blocks(
        self,
        data_plane: np.ndarray,
        rhs_plane: np.ndarray,
        tol: Optional[np.ndarray] = None,
    ) -> BlockSolveReport:
        """Factor, refine and recover the whole batch of ``B`` blocks.

        ``tol`` is each row's relative refinement target (``refine_tol`` for
        every row when omitted).  The numeric phase is deterministic per row
        and independent of batch composition, so a row's solution is the
        same bits at any width.

        LDLᵀ without pivoting meets *exact* zero pivots whenever the ordering
        eliminates a zero-diagonal constraint row before its coupled primal
        rows, so the numeric phase applies qdldl-style dynamic pivot
        clamping: a pivot whose finalised magnitude falls below
        ``pivot_clamp`` (scaled by the row's original diagonal) is replaced
        by the signed threshold — negative for the constraint block,
        preserving quasi-definite inertia.  Only degenerate pivots are
        perturbed, so healthy rows keep full factorisation accuracy, and
        guarded refinement against the *unperturbed* matrix polishes every
        row to its target.

        The AC-OPF Hessian is not always positive definite, so a fixed-order
        factorisation can also go *unstable* (element growth) on a
        near-singular iteration even without zero pivots.  Both failure modes
        surface the same way — the refined residual stalls above the
        acceptance threshold — and both are healed the same way: refactorise the
        affected rows under an escalating **signed** diagonal shift (the
        quasi-definite analogue of an unsigned regularised retry), which
        bounds growth, then refine against the true matrix again.

        Perturbed rows (clamped or shift-recovered) are accepted only when
        their residual on the unperturbed matrix is small — failures come
        back NaN.  Accepted shift recoveries are the rows reported as
        regularisations (pivot clamps are an ordering artifact of the
        quasi-definite KKT, not a conditioning event).
        """
        data_plane, rhs_plane = as_planes(data_plane, rhs_plane)
        sym = self.symbolic
        factor_t = 0.0
        B = data_plane.shape[0]
        if tol is None:
            tol = np.full(B, self.refine_tol)
        diag0 = np.zeros((B, sym.n))
        sym.diag_cols.put(diag0, planes.take(data_plane, sym.diag_src))
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
        matvec = self._matvec_for(data_plane)
        x = numeric.solve(rhs_plane)
        x, rnorm, scale, solves = _refine_rows(
            numeric, matvec, rhs_plane, x, tol, self.max_refine_steps
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
                # A shift below the clamp threshold leaves structural zero
                # pivots to the clamp, so retries count their clamps too.
                retry_clamped = np.zeros(bad.size, dtype=bool)
                retry = _factor_planes(
                    sym,
                    data_plane[bad],
                    shift=(sign * (reg * dscale))[bad],
                    clamp=(eps[bad], sign[bad]),
                    clamped_out=retry_clamped,
                )
                factor_t += time.perf_counter() - t0
                self.numeric_refactorizations += 1
                self.pivot_clamps += int(retry_clamped.sum())
                xb = retry.solve(rhs_plane[bad])
                xb, rb, sb, solves = _refine_rows(
                    retry, self._matvec_for(data_plane[bad]), rhs_plane[bad], xb, tol[bad],
                    self.max_refine_steps,
                )
                self.refinement_solves += solves
                okb = np.isfinite(xb).all(axis=1) & np.isfinite(rb)
                better = okb & (~finite[bad] | (rb < rnorm[bad]))
                rows = bad[better]
                # A retry that improves a row replaces the row's planes in
                # the base factor, so the report keeps one factor.
                numeric.W[rows], numeric.V[rows] = retry.W[better], retry.V[better]
                numeric.lu[rows], numeric.piv[rows] = retry.lu[better], retry.piv[better]
                x[rows] = xb[better]
                rnorm[rows] = rb[better]
                finite[rows] = True
                shifted[rows] = True
                healed = okb & (rb <= self.residual_tol * sb)
                bad = bad[~healed]
                if bad.size == 0:
                    break
                reg *= self.reg_growth
        # A perturbed factor's solution counts only when the residual on the
        # *unperturbed* system is small; otherwise the row fails loudly (NaN).
        rel_ok = finite & (rnorm <= self.residual_tol * scale)
        dead = ~finite | ((clamped | shifted) & ~rel_ok)
        accepted = shifted & rel_ok & ~dead
        if dead.any():
            x[dead] = np.nan
        self.block_factorizations += 1
        self.regularizations += int(accepted.sum())
        return BlockSolveReport(
            self, x, rhs_plane, accepted.astype(int), clamped | shifted, numeric, matvec,
            factor_t,
        )
