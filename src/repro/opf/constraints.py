"""Nonlinear AC-OPF constraints and their Jacobians.

Equality constraints (``g(x) = 0``) are the 2·nb nodal power-balance equations
(real rows first, then reactive rows — Eqn. 2 of the paper).  Inequality
constraints (``h(x) <= 0``) are squared apparent-power flow limits at both
ends of every rated branch.  Jacobians are returned in standard
row-per-constraint orientation as sparse matrices.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.opf.model import OPFModel
from repro.powerflow.derivatives import dAbr_dV, dSbus_dV
from repro.powerflow.injections import bus_injection


def power_balance(
    model: OPFModel,
    x: np.ndarray,
    Pd_mw: Optional[np.ndarray] = None,
    Qd_mw: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, sp.csr_matrix]:
    """Power-balance mismatch ``g(x)`` and its Jacobian.

    The mismatch is ``S_bus(V) + S_d - C_g·S_g`` split into real and reactive
    rows.  ``Pd_mw``/``Qd_mw`` override the case's nominal loads (this is how
    sampled scenarios enter the problem).
    """
    case = model.case
    base = case.base_mva
    Pd = (case.bus.Pd if Pd_mw is None else np.asarray(Pd_mw, dtype=float)) / base
    Qd = (case.bus.Qd if Qd_mw is None else np.asarray(Qd_mw, dtype=float)) / base

    V = model.complex_voltage(x)
    Pg = x[model.idx.pg]
    Qg = x[model.idx.qg]

    Sbus = bus_injection(model.adm.Ybus, V)
    Sgen = model.adm.Cg @ ((Pg + 1j * Qg) * model.gen_on)
    mis = Sbus + (Pd + 1j * Qd) - Sgen
    g = np.concatenate([mis.real, mis.imag])

    dSa, dSm = dSbus_dV(model.adm.Ybus, V)
    neg_Cg, zero_bg = model.neg_Cg_on, model.zero_bg
    # Rows: [P-balance; Q-balance], columns: [Va, Vm, Pg, Qg].
    Jg = sp.bmat(
        [
            [dSa.real, dSm.real, neg_Cg, zero_bg],
            [dSa.imag, dSm.imag, zero_bg, neg_Cg],
        ],
        format="csr",
    )
    return g, Jg


def branch_flow_limits(model: OPFModel, x: np.ndarray) -> Tuple[np.ndarray, sp.csr_matrix]:
    """Squared apparent-flow limit constraints ``h(x)`` and their Jacobian.

    For every rated branch the from-end and to-end constraints are
    ``|S_f|² - S_max² <= 0`` and ``|S_t|² - S_max² <= 0`` (p.u.).  Returns an
    empty system when the model has no rated branches.
    """
    nx = model.idx.nx
    lim = model.limited_branches
    if lim.size == 0:
        return np.zeros(0), sp.csr_matrix((0, nx))

    (dSf_dVa, dSf_dVm, Sf), (dSt_dVa, dSt_dVm, St) = model.branch_flow_derivatives(x)

    h = np.concatenate(
        [np.abs(Sf) ** 2 - model.flow_limit_sq, np.abs(St) ** 2 - model.flow_limit_sq]
    )

    dAf_dVa, dAf_dVm = dAbr_dV(dSf_dVa, dSf_dVm, Sf)
    dAt_dVa, dAt_dVm = dAbr_dV(dSt_dVa, dSt_dVm, St)

    zero_lg = model.zero_lg
    Jh = sp.bmat([[dAf_dVa, dAf_dVm, zero_lg], [dAt_dVa, dAt_dVm, zero_lg]], format="csr")
    return h, Jh


def constraint_function(
    model: OPFModel,
    Pd_mw: Optional[np.ndarray] = None,
    Qd_mw: Optional[np.ndarray] = None,
):
    """Return the MIPS constraint callback ``x -> (g, h, Jg, Jh)`` for a scenario."""

    def gh_fcn(x: np.ndarray):
        g, Jg = power_balance(model, x, Pd_mw, Qd_mw)
        h, Jh = branch_flow_limits(model, x)
        return g, h, Jg, Jh

    return gh_fcn
