"""Structure-cached sparse block assembly.

Interior-point iterations assemble the same block matrices (constraint
Jacobians, Lagrangian Hessians, the KKT system itself) over and over with an
*unchanged sparsity pattern* — only the numeric values move.  ``scipy``'s
``bmat``/``vstack`` redo the full symbolic work (COO concatenation, duplicate
summing, index sorting) on every call, which dominates assembly time for the
OPF-sized systems this library targets.

:class:`CachedBmat` performs that symbolic work once: the first call records,
for every stored nonzero of the assembled matrix, which block-data slot it
came from.  Subsequent calls with pattern-identical blocks reduce to one
``concatenate`` and one fancy-index gather over the numeric ``data`` arrays.
A pattern change (detected by comparing the blocks' index arrays) transparently
falls back to a fresh symbolic assembly, so callers never need to know whether
the cache hit.

Caches are **not thread-safe**.  Returned matrices own their ``data`` array
(safe to hold across calls) but share the cached index arrays — treat them as
read-only.

Batch extension
---------------
The batched lockstep solver (:mod:`repro.mips.batch`) evaluates *B*
same-structure problems at once: every sparse quantity becomes one shared
sparsity pattern plus a ``(B, nnz)`` *data plane*.  The second half of this
module provides the pattern-level plans that make those data planes cheap to
manipulate: :func:`pattern_union` (scatter several fixed patterns into one),
:func:`transpose_plan` (the data permutation of a fixed-pattern transpose),
:class:`BatchedCSR` (per-slot CSR matvecs)
and :class:`MatmulPlan` (a fixed-pattern sparse matrix product expanded once
into gather/reduce indices).  All plans are computed once per pattern and
replayed as pure NumPy data operations: column gathers with
:func:`repro.utils.planes.take`, scatters through
:class:`repro.utils.planes.Targets` and segment sums with
``np.add.reduceat`` — never ``plane[:, idx]``, which gives the same bits
several times slower once a plane has two or more rows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils import planes
from repro.utils.planes import Targets

__all__ = [
    "BatchedCSR",
    "CachedBmat",
    "MatmulPlan",
    "col_scaled_csr",
    "csr_rows",
    "pattern_union",
    "row_scaled_csr",
    "same_pattern",
    "symmetric_lower_map",
    "transpose_plan",
]


def _construct_unchecked(cls, data, indices, indptr, shape):
    """Build a compressed sparse matrix without scipy's format validation.

    The public constructors re-validate index dtypes and shapes on every call
    (~10µs each), which dominates when thousands of small matrices are created
    per solve.  Callers guarantee canonical, in-range inputs (they reuse the
    index arrays of an existing canonical matrix), so validation is redundant.
    """
    m = cls.__new__(cls)
    m.data = data
    m.indices = indices
    m.indptr = indptr
    m._shape = shape
    return m


def _probe_unchecked_construction() -> bool:
    try:
        probe = _construct_unchecked(
            sp.csr_matrix,
            np.array([2.0, 3.0]),
            np.array([0, 1], dtype=np.int32),
            np.array([0, 1, 2], dtype=np.int32),
            (2, 2),
        )
        ok = (
            probe.shape == (2, 2)
            and probe.nnz == 2
            and np.allclose(probe.toarray(), [[2.0, 0.0], [0.0, 3.0]])
            and np.allclose((probe @ probe).toarray(), [[4.0, 0.0], [0.0, 9.0]])
            and np.allclose(probe.T.tocsr().toarray(), probe.toarray().T)
        )
        probe.has_canonical_format = True
        probe.has_sorted_indices = True
        return bool(ok)
    except Exception:  # pragma: no cover - depends on scipy internals
        return False


#: Whether the scipy in use supports the unchecked constructor (verified once
#: at import); when it does not, the public constructors are used instead.
_UNCHECKED_OK = _probe_unchecked_construction()


def _fast_compressed(cls, data, indices, indptr, shape):
    """Canonical compressed matrix from trusted arrays, skipping validation."""
    if _UNCHECKED_OK:
        m = _construct_unchecked(cls, data, indices, indptr, shape)
        m.has_canonical_format = True  # inputs come from a canonical matrix
        return m
    return cls((data, indices, indptr), shape=shape, copy=False)


def same_pattern(
    matrix, indptr: Optional[np.ndarray], indices: Optional[np.ndarray]
) -> bool:
    """Whether a compressed matrix has the cached sparsity pattern.

    Checks array identity first — hot-loop callers hand back the very same
    index arrays every iteration, making the common case O(1) — and falls
    back to an element-wise comparison.
    """
    if indptr is None or indices is None:
        return False
    if matrix.indptr is not indptr and not np.array_equal(matrix.indptr, indptr):
        return False
    if matrix.indices is not indices and not np.array_equal(matrix.indices, indices):
        return False
    return True


def _canonical_csr(block: sp.spmatrix) -> sp.csr_matrix:
    """Canonical (sorted, duplicate-free) CSR view of a sparse ``block``."""
    csr = block.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


class CachedBmat:
    """Assemble ``sp.bmat(blocks)`` with symbolic structure reuse.

    Parameters
    ----------
    format:
        Output sparse format (``"csr"`` or ``"csc"``).

    Notes
    -----
    The fast path requires every block to present its nonzeros in the same
    order as when the structure was cached; canonical CSR blocks (the output
    of normal scipy arithmetic) guarantee this.  Blocks are canonicalised on
    the way in, so any sparse input is accepted.
    """

    def __init__(self, format: str = "csr"):
        if format not in ("csr", "csc"):
            raise ValueError("format must be 'csr' or 'csc'")
        self.format = format
        self._pattern: Optional[List[List[Optional[tuple]]]] = None
        self._order: Optional[np.ndarray] = None
        self._template = None
        #: Number of fast (structure-reusing) assemblies performed.
        self.hits = 0
        #: Number of full symbolic assemblies performed.
        self.misses = 0

    # ------------------------------------------------------------------ internals
    def _matches(self, blocks: Sequence[Sequence[Optional[sp.csr_matrix]]]) -> bool:
        pattern = self._pattern
        if pattern is None or len(pattern) != len(blocks):
            return False
        for prow, brow in zip(pattern, blocks):
            if len(prow) != len(brow):
                return False
            for pblk, blk in zip(prow, brow):
                if (pblk is None) != (blk is None):
                    return False
                if blk is None:
                    continue
                shape, indptr, indices = pblk
                if blk.shape != shape:
                    return False
                if not same_pattern(blk, indptr, indices):
                    return False
        return True

    def _rebuild(self, blocks: Sequence[Sequence[Optional[sp.csr_matrix]]]) -> None:
        coded_rows = []
        pattern: List[List[Optional[tuple]]] = []
        offset = 0
        for brow in blocks:
            coded_row = []
            prow: List[Optional[tuple]] = []
            for blk in brow:
                if blk is None:
                    coded_row.append(None)
                    prow.append(None)
                    continue
                coded = blk.copy()
                # 1-based slot ids survive the COO round-trip inside bmat
                # (blocks are disjoint, so no duplicate summing occurs).
                coded.data = np.arange(offset + 1, offset + blk.nnz + 1, dtype=float)
                offset += blk.nnz
                coded_row.append(coded)
                prow.append((blk.shape, blk.indptr, blk.indices))
            coded_rows.append(coded_row)
            pattern.append(prow)

        template = sp.bmat(coded_rows, format=self.format)
        self._order = template.data.astype(np.intp) - 1
        self._template = template
        self._pattern = pattern
        self.misses += 1

    # -------------------------------------------------------------------- public
    def assemble(self, blocks: Sequence[Sequence[Optional[sp.spmatrix]]]):
        """Assemble the block matrix, reusing cached structure when possible."""
        canon = [
            [None if blk is None else _canonical_csr(blk) for blk in brow]
            for brow in blocks
        ]
        if not self._matches(canon):
            self._rebuild(canon)
        else:
            self.hits += 1
        data_parts = [blk.data for brow in canon for blk in brow if blk is not None]
        src = np.concatenate(data_parts) if data_parts else np.zeros(0)
        template = self._template
        matrix_cls = sp.csr_matrix if self.format == "csr" else sp.csc_matrix
        # The gather allocates fresh data, so the returned matrix is safe to
        # hold across calls; only the index arrays are shared with the cache.
        return _fast_compressed(
            matrix_cls, src[self._order], template.indices, template.indptr, template.shape
        )

    def assemble_batch(self, data_planes: Sequence[np.ndarray]) -> np.ndarray:
        """Batched fast path over a previously cached structure.

        ``data_planes`` holds one ``(B, nnz)`` array per *non-None* block in
        row-major block order, with exactly the patterns of the last
        :meth:`assemble` call (callers prime the cache once with template
        matrices and are responsible for keeping the patterns in sync).
        Returns the ``(B, out_nnz)`` data planes of the assembled matrix in
        the cached template's storage order.
        """
        if self._order is None:
            raise RuntimeError("assemble_batch requires a primed cache (call assemble first)")
        parts = [np.atleast_2d(np.asarray(p)) for p in data_planes]
        src = np.concatenate(parts, axis=1) if parts else np.zeros((1, 0))
        return planes.take(src, self._order)

    @property
    def template(self):
        """The cached assembled matrix (pattern only — data is meaningless).

        Shares the cache's index arrays; treat it as read-only.  ``None``
        until the first :meth:`assemble` call.
        """
        return self._template


def row_scaled_csr(matrix: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    """Row-scale a canonical CSR matrix without symbolic work.

    Equivalent to ``sp.diags(scale) @ matrix`` (same values, same structure)
    but a pure data operation.  Returns a CSR matrix sharing ``matrix``'s
    index arrays whose row ``i`` is ``scale[i] * matrix[i]``.
    """
    matrix = _canonical_csr(matrix)
    per_row = np.diff(matrix.indptr)
    data = matrix.data * np.repeat(scale, per_row)
    return _fast_compressed(
        sp.csr_matrix, data, matrix.indices, matrix.indptr, matrix.shape
    )


def col_scaled_csr(matrix: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    """Column-scale a canonical CSR matrix without symbolic work.

    Equivalent to ``matrix @ sp.diags(scale)`` (same values, same structure)
    but a pure data operation; the result shares ``matrix``'s index arrays.
    """
    matrix = _canonical_csr(matrix)
    return _fast_compressed(
        sp.csr_matrix,
        matrix.data * scale[matrix.indices],
        matrix.indices,
        matrix.indptr,
        matrix.shape,
    )


# --------------------------------------------------------------- batch plans
def csr_rows(matrix: sp.csr_matrix) -> np.ndarray:
    """Row index of every stored nonzero of a canonical CSR matrix."""
    return np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))


def _pattern_keys(matrix: sp.csr_matrix) -> np.ndarray:
    """Row-major linear positions of the nonzeros (sorted for canonical CSR)."""
    return csr_rows(matrix).astype(np.int64) * matrix.shape[1] + matrix.indices


def pattern_union(matrices: Sequence[sp.spmatrix]) -> Tuple[sp.csr_matrix, List[np.ndarray]]:
    """Union sparsity pattern of same-shape matrices plus scatter positions.

    Returns ``(template, positions)`` where ``template`` is a canonical CSR
    matrix holding the union pattern (data zeroed) and ``positions[i]`` maps
    matrix ``i``'s nonzeros onto template storage positions (unique), so
    batched data planes can be accumulated with
    ``Targets(positions[i]).add(out, data_i)``.
    """
    canon = [_canonical_csr(m) for m in matrices]
    if not canon:
        raise ValueError("pattern_union needs at least one matrix")
    shape = canon[0].shape
    if any(m.shape != shape for m in canon):
        raise ValueError("pattern_union requires matrices of identical shape")
    acc = None
    for m in canon:
        part = _fast_compressed(
            sp.csr_matrix, np.ones(m.nnz), m.indices, m.indptr, shape
        )
        acc = part if acc is None else acc + part
    template = _canonical_csr(acc)
    if template is acc and len(canon) == 1:
        template = acc.copy()
    template.data = np.zeros(template.nnz)
    template.has_canonical_format = True
    keys = _pattern_keys(template)
    positions = [
        np.searchsorted(keys, _pattern_keys(m)).astype(np.intp) for m in canon
    ]
    return template, positions


def symmetric_lower_map(
    indptr: np.ndarray, indices: np.ndarray, n: int, perm: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower-triangle pattern of the symmetric permutation of a CSC pattern.

    For the ``n × n`` CSC pattern ``(indptr, indices)`` of a (structurally
    symmetric or near-symmetric) matrix ``A`` and an elimination order
    ``perm`` (``perm[j]`` = original index eliminated at step ``j``), the
    permuted matrix is ``B[i, j] = A[perm[i], perm[j]]``.  Returns
    ``(low_indptr, low_indices, source)`` describing the lower triangle
    (diagonal included) of the *symmetrised* pattern of ``B`` in canonical CSC
    order, where ``source[q]`` is the storage position of the original CSC
    entry whose value populates lower entry ``q``.

    When both ``B[i, j]`` and its mirror ``B[j, i]`` are stored, the entry
    that already lies in ``B``'s lower triangle is preferred — a
    deterministic choice, so same-pattern replays gather identical values
    even for matrices that are symmetric only up to roundoff.
    """
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    nnz = int(indices.size)
    inv = np.empty(n, dtype=np.int64)
    inv[np.asarray(perm, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # Coordinates in the permuted matrix B.
    bi = inv[indices]
    bj = inv[cols]
    low_row = np.maximum(bi, bj)
    low_col = np.minimum(bi, bj)
    key = low_col * n + low_row
    direct = bi >= bj  # the entry already lies in B's lower triangle
    order = np.lexsort((~direct, key))  # within a key group, direct first
    key_sorted = key[order]
    first = np.ones(nnz, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    chosen = order[first]
    unique_keys = key_sorted[first]
    low_cols = unique_keys // n
    low_rows = unique_keys % n
    low_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(low_cols, minlength=n), out=low_indptr[1:])
    return low_indptr, low_rows.astype(np.int64), chosen.astype(np.intp)


def transpose_plan(matrix: sp.spmatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Data permutation realising the transpose of a fixed CSR pattern.

    Returns ``(order, t_indptr, t_indices)`` such that for any data plane
    ``D`` of shape ``(B, nnz)`` on ``matrix``'s pattern, ``take(D, order)`` is
    the data of ``matrix.T`` in canonical CSR order with index arrays
    ``(t_indptr, t_indices)``.
    """
    m = _canonical_csr(matrix)
    coded = _fast_compressed(
        sp.csr_matrix,
        np.arange(1, m.nnz + 1, dtype=float),
        m.indices,
        m.indptr,
        m.shape,
    )
    t = coded.T.tocsr()
    t.sort_indices()
    return t.data.astype(np.intp) - 1, t.indptr, t.indices


class BatchedCSR:
    """Per-slot matvecs over one fixed CSR pattern with ``(B, nnz)`` data planes.

    Built once per pattern from its ``(indptr, indices)``: the starts of the
    non-empty rows (the ``reduceat`` segments) and their scatter
    :class:`~repro.utils.planes.Targets` are fixed, so a replay is one
    gather, one multiply, one segment sum and one scatter.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        starts = np.asarray(indptr[:-1])
        valid = starts < np.asarray(indptr[1:])
        self.n_rows = starts.size
        self.indices = np.asarray(indices)
        # reduceat over the non-empty starts only: consecutive filtered starts
        # are exactly one stored row apart, so each segment is one row.
        self._starts = starts[valid]
        self._rows = Targets(np.flatnonzero(valid))

    def matvec(self, data: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-slot matvec ``Y[b] = A_b @ X[b]`` of the ``(B, n_cols)`` plane ``X``.

        Empty rows give zero.  Each row sums in storage order (matching
        scipy's CSR reductions), keeping batched results bit-comparable with
        scalar ones.
        """
        products = data * planes.take(X, self.indices)
        out = np.zeros((products.shape[0], self.n_rows), dtype=products.dtype)
        if self._starts.size:
            self._rows.put(out, np.add.reduceat(products, self._starts, axis=1))
        return out


class MatmulPlan:
    """Fixed-pattern batched sparse matrix product ``C_b = A_b @ B_b``.

    Both factors keep a fixed sparsity pattern while their numeric data varies
    per slot, so the product's pattern — and, for every stored output nonzero,
    the set of ``(A_nnz, B_nnz)`` pairs contributing to it — is constant.  The
    constructor expands that multiplication plan once (pair gather indices
    grouped by output position); :meth:`multiply` replays it on ``(B, nnz)``
    data planes as one multiply plus one grouped reduction.
    """

    def __init__(self, A: sp.spmatrix, B: sp.spmatrix):
        A = _canonical_csr(A)
        B = _canonical_csr(B)
        if A.shape[1] != B.shape[0]:
            raise ValueError("inner dimensions of the product do not match")
        m, n = A.shape[0], B.shape[1]
        counts = np.diff(B.indptr)
        rep = counts[A.indices]
        total = int(rep.sum())
        left = np.repeat(np.arange(A.nnz, dtype=np.intp), rep)
        pair_offsets = np.zeros(A.nnz, dtype=np.intp)
        np.cumsum(rep[:-1], out=pair_offsets[1:])
        right = (
            np.arange(total, dtype=np.intp)
            - np.repeat(pair_offsets, rep)
            + np.repeat(B.indptr[A.indices].astype(np.intp), rep)
        )
        out_row = np.repeat(csr_rows(A), rep)
        out_col = B.indices[right]
        keys = out_row.astype(np.int64) * n + out_col
        order = np.argsort(keys, kind="stable")
        left, right, keys = left[order], right[order], keys[order]
        fresh = np.ones(total, dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        self._left = left
        self._right = right
        self._group_starts = np.flatnonzero(fresh)
        unique_keys = keys[self._group_starts]
        rows = (unique_keys // n).astype(np.int64)
        cols = (unique_keys % n).astype(np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        template = sp.csr_matrix(
            (np.zeros(unique_keys.size), cols, indptr), shape=(m, n)
        )
        template.has_canonical_format = True  # built sorted and duplicate-free
        #: Canonical CSR pattern of the product (data zeroed, read-only).
        self.template = template

    def multiply(self, Adata: np.ndarray, Bdata: np.ndarray) -> np.ndarray:
        """Product data planes: ``(B, nnz_A) × (B, nnz_B) → (B, nnz_C)``.

        Either factor may be a ``(1, nnz)`` constant plane; broadcasting
        across the batch axis is handled by NumPy.
        """
        Adata = np.atleast_2d(np.asarray(Adata))
        Bdata = np.atleast_2d(np.asarray(Bdata))
        n_out = self.template.nnz
        batch = max(Adata.shape[0], Bdata.shape[0])
        if self._left.size == 0:
            dtype = np.result_type(Adata.dtype, Bdata.dtype)
            return np.zeros((batch, n_out), dtype=dtype)
        contrib = planes.take(Adata, self._left) * planes.take(Bdata, self._right)
        return np.add.reduceat(contrib, self._group_starts, axis=1)
