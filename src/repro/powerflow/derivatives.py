"""First derivatives of bus injections and branch flows w.r.t. voltages.

These follow the standard polar-coordinate formulas used by MATPOWER
(``dSbus_dV``, ``dSbr_dV``, ``dAbr_dV``).  Every function returns SciPy sparse
matrices; the test suite verifies all of them against central finite
differences of the underlying injection/flow functions.

The formulas multiply by diagonal matrices only, so instead of sparse matrix
products the implementations scale the CSR ``data`` arrays directly
(:func:`~repro.utils.sparse.row_scaled_csr` / ``col_scaled_csr``).  The
solver evaluates the same derivatives per network element instead
(:mod:`repro.opf.batch`); these matrix forms are the independent reference
of the element-kernel tests and of the KKT certificate
(:mod:`repro.opf.certificate`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.sparse import col_scaled_csr, row_scaled_csr


def _diag(values: np.ndarray) -> sp.csr_matrix:
    n = values.shape[0]
    return sp.csr_matrix((values, (np.arange(n), np.arange(n))), shape=(n, n))


def dSbus_dV(Ybus: sp.spmatrix, V: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Partial derivatives of bus injections w.r.t. voltage angle and magnitude.

    Returns ``(dSbus_dVa, dSbus_dVm)``, each ``(nb, nb)`` complex.
    """
    Ybus = sp.csr_matrix(Ybus)
    Ibus = Ybus @ V
    Vnorm = V / np.abs(V)

    # dS_dVa = j diag(V) conj(diag(Ibus) - Ybus diag(V))
    dS_dVa = row_scaled_csr((_diag(Ibus) - col_scaled_csr(Ybus, V)).conjugate(), 1j * V)
    # dS_dVm = diag(V) conj(Ybus diag(Vnorm)) + conj(diag(Ibus)) diag(Vnorm)
    dS_dVm = row_scaled_csr(col_scaled_csr(Ybus, Vnorm).conjugate(), V) + _diag(
        np.conj(Ibus) * Vnorm
    )
    return dS_dVa.tocsr(), dS_dVm.tocsr()


def dSbr_dV(
    Ybr: sp.spmatrix, Cbr: sp.spmatrix, V: np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Partial derivatives of complex branch flows (one branch end) w.r.t. voltages.

    ``Ybr``/``Cbr`` are the branch admittance / incidence matrices of either
    the from or the to end.  Returns ``(dSbr_dVa, dSbr_dVm, Sbr)`` with the
    flow vector included since callers always need it alongside.
    """
    Ybr = sp.csr_matrix(Ybr)
    Cbr = sp.csr_matrix(Cbr)
    Ibr = Ybr @ V
    Vbr = Cbr @ V
    Vnorm = V / np.abs(V)
    conj_Ibr = np.conj(Ibr)

    # dS_dVa = j (conj(diag(Ibr)) Cbr diag(V) - diag(Vbr) conj(Ybr diag(V)))
    dS_dVa = row_scaled_csr(col_scaled_csr(Cbr, 1j * V), conj_Ibr) - row_scaled_csr(
        col_scaled_csr(Ybr, V).conjugate(), 1j * Vbr
    )
    # dS_dVm = diag(Vbr) conj(Ybr diag(Vnorm)) + conj(diag(Ibr)) Cbr diag(Vnorm)
    dS_dVm = row_scaled_csr(col_scaled_csr(Ybr, Vnorm).conjugate(), Vbr) + row_scaled_csr(
        col_scaled_csr(Cbr, Vnorm), conj_Ibr
    )
    Sbr = Vbr * conj_Ibr
    return dS_dVa.tocsr(), dS_dVm.tocsr(), Sbr


def dAbr_dV(
    dSbr_dVa: sp.spmatrix,
    dSbr_dVm: sp.spmatrix,
    Sbr: np.ndarray,
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Partial derivatives of the squared apparent flow ``A = |S|^2`` w.r.t. voltages.

    Returns ``(dAbr_dVa, dAbr_dVm)``, each real ``(nl, nb)``.
    """
    dVa = sp.csr_matrix(dSbr_dVa)
    dVm = sp.csr_matrix(dSbr_dVm)
    twoP = 2.0 * Sbr.real
    twoQ = 2.0 * Sbr.imag
    dA_dVa = row_scaled_csr(dVa.real, twoP) + row_scaled_csr(dVa.imag, twoQ)
    dA_dVm = row_scaled_csr(dVm.real, twoP) + row_scaled_csr(dVm.imag, twoQ)
    return dA_dVa.tocsr(), dA_dVm.tocsr()


def dIbr_dV(
    Ybr: sp.spmatrix, V: np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Partial derivatives of complex branch currents w.r.t. voltages.

    Provided for completeness (current-magnitude flow limits); returns
    ``(dIbr_dVa, dIbr_dVm, Ibr)``.
    """
    diagV = _diag(V)
    diagVnorm = _diag(V / np.abs(V))
    Ibr = Ybr @ V
    dI_dVa = 1j * (Ybr @ diagV)
    dI_dVm = Ybr @ diagVnorm
    return sp.csr_matrix(dI_dVa), sp.csr_matrix(dI_dVm), Ibr
