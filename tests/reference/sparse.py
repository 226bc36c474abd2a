"""One row of a batched data plane as a CSR or CSC matrix.

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


def csc_from_template(template: sp.csc_matrix, data: np.ndarray) -> sp.csc_matrix:
    """CSC matrix with ``template``'s pattern and fresh ``data``."""
    return sp.csc_matrix(
        (np.asarray(data), template.indices, template.indptr), shape=template.shape
    )
