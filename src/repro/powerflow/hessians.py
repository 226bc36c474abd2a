"""Second derivatives of bus injections and branch flows (Hessian blocks).

These provide the constraint contributions to the OPF Lagrangian Hessian used
by the MIPS Newton step.  Given a multiplier vector ``lam`` the functions
return the four ``(n, n)`` blocks of the Hessian of ``lamᵀ f(Va, Vm)`` for
``f`` the complex bus injection, complex branch flow or squared branch flow.

Derivation
----------
Both the bus injection ``S = diag(V) conj(Ybus V)`` and the branch flow
``S = diag(C V) conj(Ybr V)`` are special cases of ``S = diag(A V) conj(B V)``
with constant matrices ``A`` and ``B``.  Writing ``V_i = Vm_i e^{jθ_i}``,

    Φ(θ, Vm) = lamᵀ S = Σ_{ik} W_ik V_i conj(V_k),    W = Aᵀ diag(lam) conj(B)

so with ``T_ik = W_ik V_i conj(V_k)``, row sums ``R = T·1`` and column sums
``C = Tᵀ·1`` the Hessian blocks are

    ∂²Φ/∂θ²     = T + Tᵀ - diag(R + C)
    ∂²Φ/∂θ∂Vm   = j [ diag((R - C)/Vm) + (T - Tᵀ) diag(1/Vm) ]
    ∂²Φ/∂Vm∂θ   = (∂²Φ/∂θ∂Vm)ᵀ
    ∂²Φ/∂Vm²    = diag(1/Vm) (T + Tᵀ) diag(1/Vm)

The test suite additionally verifies every block against finite differences of
the corresponding first derivatives.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.sparse import col_scaled_csr, row_scaled_csr


def _diag(values: np.ndarray) -> sp.csr_matrix:
    n = values.shape[0]
    return sp.csr_matrix((values, (np.arange(n), np.arange(n))), shape=(n, n))


HessianBlocks = Tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]


def _polar_hessian_blocks(W: sp.spmatrix, V: np.ndarray) -> HessianBlocks:
    """Hessian blocks of ``Σ_{ik} W_ik V_i conj(V_k)`` w.r.t. ``(Va, Vm)``.

    Returns ``(Gaa, Gav, Gva, Gvv)``.  All diagonal multiplications are
    applied as direct CSR data scalings — this runs once per multiplier block
    per MIPS iteration.
    """
    Vm = np.abs(V)
    Vminv = 1.0 / Vm
    T = row_scaled_csr(col_scaled_csr(sp.csr_matrix(W), np.conj(V)), V).tocsr()
    R = np.asarray(T.sum(axis=1)).ravel()  # row sums
    Csum = np.asarray(T.sum(axis=0)).ravel()  # column sums

    Tt = T.T.tocsr()
    sym = T + Tt
    skew = T - Tt

    Gaa = sym - _diag(R + Csum)
    Gav = _diag(1j * (R - Csum) * Vminv) + col_scaled_csr(skew, 1j * Vminv)
    Gva = Gav.T
    Gvv = row_scaled_csr(col_scaled_csr(sym, Vminv), Vminv)
    return (
        sp.csr_matrix(Gaa),
        sp.csr_matrix(Gav),
        sp.csr_matrix(Gva),
        sp.csr_matrix(Gvv),
    )


def d2Sbus_dV2(Ybus: sp.spmatrix, V: np.ndarray, lam: np.ndarray) -> HessianBlocks:
    """Hessian blocks of ``lamᵀ Sbus(V)`` w.r.t. (Va, Vm).

    ``lam`` may be complex; the OPF layer uses the real part of the result for
    P-balance multipliers and the imaginary part for Q-balance multipliers.
    """
    W = row_scaled_csr(
        sp.csr_matrix(Ybus).conjugate(), np.asarray(lam, dtype=complex)
    )
    return _polar_hessian_blocks(W, V)


def d2Sbr_dV2(
    Cbr: sp.spmatrix, Ybr: sp.spmatrix, V: np.ndarray, lam: np.ndarray
) -> HessianBlocks:
    """Hessian blocks of ``lamᵀ Sbr(V)`` for complex branch flows.

    ``Cbr``/``Ybr`` are the branch incidence / admittance matrices of one
    branch end; ``lam`` has one (possibly complex) entry per branch.
    """
    W = sp.csr_matrix(Cbr).T @ row_scaled_csr(
        sp.csr_matrix(Ybr).conjugate(), np.asarray(lam, dtype=complex)
    )
    return _polar_hessian_blocks(W, V)


def d2ASbr_dV2(
    dSbr_dVa: sp.spmatrix,
    dSbr_dVm: sp.spmatrix,
    Sbr: np.ndarray,
    Cbr: sp.spmatrix,
    Ybr: sp.spmatrix,
    V: np.ndarray,
    lam: np.ndarray,
) -> HessianBlocks:
    """Hessian blocks of ``lamᵀ |Sbr(V)|²`` (squared apparent-power flows).

    ``|S|² = conj(S)·S`` gives two terms: a Gauss-Newton-like product of first
    derivatives and a curvature term reusing :func:`d2Sbr_dV2` with the
    complex weight ``lam ⊙ conj(Sbr)``.
    """
    lam = np.asarray(lam, dtype=float)
    lam_c = lam.astype(complex)
    Saa, Sav, Sva, Svv = d2Sbr_dV2(Cbr, Ybr, V, lam * np.conj(Sbr))

    dVa = sp.csr_matrix(dSbr_dVa)
    dVm = sp.csr_matrix(dSbr_dVm)
    dVaH = np.conj(dVa).T.tocsr()
    dVmH = np.conj(dVm).T.tocsr()
    MdVa = row_scaled_csr(dVa, lam_c)
    MdVm = row_scaled_csr(dVm, lam_c)

    Haa = 2.0 * (sp.csr_matrix(Saa) + dVaH @ MdVa).real
    Hav = 2.0 * (sp.csr_matrix(Sav) + dVaH @ MdVm).real
    Hva = 2.0 * (sp.csr_matrix(Sva) + dVmH @ MdVa).real
    Hvv = 2.0 * (sp.csr_matrix(Svv) + dVmH @ MdVm).real
    return (
        sp.csr_matrix(Haa),
        sp.csr_matrix(Hav),
        sp.csr_matrix(Hva),
        sp.csr_matrix(Hvv),
    )
