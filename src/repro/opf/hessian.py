"""Lagrangian Hessian of the AC-OPF problem.

MIPS takes exact Newton steps, so it needs the Hessian of::

    L(x, λ, µ) = σ·f(x) + λᵀ g(x) + µᵀ h(x)

with respect to ``x``.  The cost contributes a diagonal block in ``Pg``; the
power-balance and branch-flow constraints contribute blocks in ``(Va, Vm)``
assembled from the second-derivative kernels of
:mod:`repro.powerflow.hessians`.  The solver evaluates the same Hessian per
network element (:mod:`repro.opf.batch`); this matrix form is the
independent reference the element-kernel tests compare against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.opf.costs import objective_hessian_diag
from repro.opf.model import OPFModel
from repro.powerflow.hessians import d2ASbr_dV2, d2Sbus_dV2


def hessian_blocks(
    model: OPFModel,
    x: np.ndarray,
    lam_nl: np.ndarray,
    mu_nl: np.ndarray,
    cost_mult: float = 1.0,
):
    """Evaluate the Lagrangian-Hessian kernel blocks at ``x``.

    Returns ``(Haa, Hav, Hva, Hvv, Dgg)``: the four ``(nb, nb)`` voltage
    blocks (power balance plus branch-flow curvature) and the diagonal
    ``(2·ng, 2·ng)`` cost block.  :func:`lagrangian_hessian` assembles these
    into the full matrix; the KKT micro-benchmark times that assembly in
    isolation.
    """
    case = model.case
    nb, ng = case.n_bus, case.n_gen
    V = model.complex_voltage(x)

    # ------------------------------------------------------------- cost part
    # Diagonal Pg block of the objective Hessian in the (Pg, Qg) corner; the
    # Qg half is structurally zero but kept explicit so the pattern is fixed.
    diag_gg = np.zeros(2 * ng)
    diag_gg[:ng] = objective_hessian_diag(model, x) * cost_mult
    gg_idx = np.arange(2 * ng)
    Dgg = sp.csr_matrix((diag_gg, (gg_idx, gg_idx)), shape=(2 * ng, 2 * ng))

    # ----------------------------------------------------- power balance part
    lamP = lam_nl[:nb]
    lamQ = lam_nl[nb : 2 * nb]
    Gpaa, Gpav, Gpva, Gpvv = d2Sbus_dV2(model.adm.Ybus, V, lamP)
    Gqaa, Gqav, Gqva, Gqvv = d2Sbus_dV2(model.adm.Ybus, V, lamQ)
    Haa = sp.csr_matrix(Gpaa.real) + sp.csr_matrix(Gqaa.imag)
    Hav = sp.csr_matrix(Gpav.real) + sp.csr_matrix(Gqav.imag)
    Hva = sp.csr_matrix(Gpva.real) + sp.csr_matrix(Gqva.imag)
    Hvv = sp.csr_matrix(Gpvv.real) + sp.csr_matrix(Gqvv.imag)

    # ----------------------------------------------------- branch flow part
    lim = model.limited_branches
    if lim.size and mu_nl.size:
        nl = lim.size
        muF = mu_nl[:nl]
        muT = mu_nl[nl : 2 * nl]
        Yf, Yt = model.Yf_lim, model.Yt_lim
        Cf, Ct = model.Cf_lim, model.Ct_lim

        (dSf_dVa, dSf_dVm, Sf), (dSt_dVa, dSt_dVm, St) = model.branch_flow_derivatives(x, V)

        Hfaa, Hfav, Hfva, Hfvv = d2ASbr_dV2(dSf_dVa, dSf_dVm, Sf, Cf, Yf, V, muF)
        Htaa, Htav, Htva, Htvv = d2ASbr_dV2(dSt_dVa, dSt_dVm, St, Ct, Yt, V, muT)

        Haa = Haa + Hfaa + Htaa
        Hav = Hav + Hfav + Htav
        Hva = Hva + Hfva + Htva
        Hvv = Hvv + Hfvv + Htvv

    return Haa, Hav, Hva, Hvv, Dgg


def lagrangian_hessian(
    model: OPFModel,
    x: np.ndarray,
    lam_nl: np.ndarray,
    mu_nl: np.ndarray,
    cost_mult: float = 1.0,
) -> sp.csr_matrix:
    """Hessian of the Lagrangian w.r.t. the optimisation vector.

    ``lam_nl`` holds the multipliers of the 2·nb power-balance rows (real rows
    first) and ``mu_nl`` those of the branch-flow rows (from-end rows first);
    bound multipliers never appear because bound constraints are linear.

    The full Hessian is assembled through the model's structure cache: the
    ``(Va, Vm)`` kernel blocks and the diagonal ``Pg`` cost block are scattered
    into a block pattern computed once per case.
    """
    Haa, Hav, Hva, Hvv, Dgg = hessian_blocks(model, x, lam_nl, mu_nl, cost_mult)
    return model._hess_cache.assemble(
        [
            [Haa, Hav, None],
            [Hva, Hvv, None],
            [None, None, Dgg],
        ]
    )

