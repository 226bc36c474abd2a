"""Sparse helpers of the batched lockstep solver.

Interior-point iterations assemble the same block matrices (constraint
Jacobians, the KKT system) over and over with an *unchanged sparsity
pattern* — only the numeric values move.  :func:`bmat_order` does the symbolic
work of ``sp.bmat`` once, at plan construction: it returns the assembled
pattern and, for every stored entry, the block-data slot it came from, so an
assembly becomes one ``concatenate`` and one gather over the blocks' data.

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
    "MatmulPlan",
    "bmat_order",
    "col_scaled_csr",
    "csr_rows",
    "pattern_union",
    "row_scaled_csr",
    "symmetric_lower_map",
    "transpose_plan",
]


def _canonical_csr(block: sp.spmatrix) -> sp.csr_matrix:
    """Canonical (sorted, duplicate-free) CSR view of a sparse ``block``."""
    csr = block.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


def bmat_order(
    blocks: Sequence[Sequence[Optional[sp.spmatrix]]], format: str = "csr"
) -> Tuple[sp.spmatrix, np.ndarray]:
    """``sp.bmat(blocks, format=format)`` and the slot order of its entries.

    ``order[k]`` is the position of the assembled matrix's ``k``-th stored
    entry in the concatenated ``data`` of the blocks' canonical CSR forms
    (row-major block order, ``None`` blocks skipped).  Data planes on those
    patterns therefore assemble, every row at once, as
    ``planes.take(np.concatenate(data_planes, axis=1), order)``.  Explicit
    zeros keep their slots, so the pattern never depends on the values.
    """
    coded_rows = []
    data = []
    offset = 0
    for brow in blocks:
        coded_row = []
        for blk in brow:
            if blk is None:
                coded_row.append(None)
                continue
            blk = _canonical_csr(blk)
            coded = blk.copy()
            # 1-based slot ids survive the COO round-trip inside bmat
            # (blocks are disjoint, so no duplicate summing occurs).
            coded.data = np.arange(offset + 1, offset + blk.nnz + 1, dtype=float)
            offset += blk.nnz
            coded_row.append(coded)
            data.append(blk.data)
        coded_rows.append(coded_row)
    template = sp.bmat(coded_rows, format=format)
    order = template.data.astype(np.intp) - 1
    template.data = (np.concatenate(data) if data else np.zeros(0))[order]
    return template, order


def row_scaled_csr(matrix: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    """Row-scale a canonical CSR matrix without symbolic work.

    Equivalent to ``sp.diags(scale) @ matrix`` (same values, same structure)
    but a pure data operation.  Returns a CSR matrix sharing ``matrix``'s
    index arrays whose row ``i`` is ``scale[i] * matrix[i]``.
    """
    matrix = _canonical_csr(matrix)
    per_row = np.diff(matrix.indptr)
    data = matrix.data * np.repeat(scale, per_row)
    return sp.csr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape, copy=False)


def col_scaled_csr(matrix: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    """Column-scale a canonical CSR matrix without symbolic work.

    Equivalent to ``matrix @ sp.diags(scale)`` (same values, same structure)
    but a pure data operation; the result shares ``matrix``'s index arrays.
    """
    matrix = _canonical_csr(matrix)
    return sp.csr_matrix(
        (matrix.data * scale[matrix.indices], matrix.indices, matrix.indptr),
        shape=matrix.shape,
        copy=False,
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
        part = sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=shape, copy=False)
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
    coded = sp.csr_matrix(
        (np.arange(1, m.nnz + 1, dtype=float), m.indices, m.indptr), shape=m.shape, copy=False
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
