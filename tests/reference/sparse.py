"""One row of a batched data plane as a CSR matrix, and a pattern test.

The lockstep solver keeps a sparse quantity as a fixed pattern plus a
``(B, nnz)`` data plane; the tests materialise one slot of such a plane as a
matrix to compare it against the matrix-form reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def csr_from_template(template: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """CSR matrix with ``template``'s pattern and fresh ``data``."""
    return sp.csr_matrix(
        (np.asarray(data), template.indices, template.indptr), shape=template.shape
    )


def same_pattern(matrix, indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether a compressed matrix has the sparsity pattern ``(indptr,
    indices)``.

    Checks array identity first — callers that hand back the very same index
    arrays every evaluation make the common case O(1) — and falls back to an
    element-wise comparison.
    """
    if matrix.indptr is not indptr and not np.array_equal(matrix.indptr, indptr):
        return False
    if matrix.indices is not indices and not np.array_equal(matrix.indices, indices):
        return False
    return True
