"""Reference power flow: Newton–Raphson AC power flow and branch flows.

Independent of the OPF code path, so the tests can cross-check it:
re-dispatching an OPF answer's set points through :func:`newton_power_flow`
must reproduce the same operating state, and :func:`branch_flows` is the
from/to-end side of the injection-conservation test.  The Newton method is
the textbook polar-coordinate one with the full Jacobian assembled from
:func:`repro.powerflow.derivatives.dSbus_dV`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.grid.components import Case, PQ, PV, REF
from repro.powerflow.derivatives import dSbus_dV
from repro.powerflow.injections import bus_injection, polar_to_complex
from repro.powerflow.ybus import AdmittanceMatrices, make_ybus


@dataclass
class PowerFlowResult:
    """Outcome of a Newton power-flow solve."""

    converged: bool
    iterations: int
    Vm: np.ndarray
    Va: np.ndarray
    Sbus: np.ndarray
    Sf: np.ndarray
    St: np.ndarray
    max_mismatch: float
    history: List[float] = field(default_factory=list)

    @property
    def V(self) -> np.ndarray:
        """Complex bus voltages."""
        return polar_to_complex(self.Va, self.Vm)


def branch_flows(
    adm: AdmittanceMatrices, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Complex power flows ``(Sf, St)`` at the from / to end of every branch."""
    Sf = (adm.Cf @ V) * np.conj(adm.Yf @ V)
    St = (adm.Ct @ V) * np.conj(adm.Yt @ V)
    return Sf, St


def _scheduled_injection(case: Case, adm: AdmittanceMatrices) -> np.ndarray:
    """Net scheduled complex injection per bus (generation minus load), p.u."""
    status = (case.gen.status > 0).astype(float)
    Sg = adm.Cg @ ((case.gen.Pg + 1j * case.gen.Qg) * status) / case.base_mva
    Sd = (case.bus.Pd + 1j * case.bus.Qd) / case.base_mva
    return Sg - Sd


def newton_power_flow(
    case: Case,
    adm: Optional[AdmittanceMatrices] = None,
    tol: float = 1e-8,
    max_iter: int = 30,
    flat_start: bool = False,
) -> PowerFlowResult:
    """Solve the AC power flow for ``case``.

    PV-bus voltage magnitudes are held at the generator set points ``Vg``;
    the reference bus holds both its angle and magnitude.  Returns a
    :class:`PowerFlowResult`; ``converged`` is ``False`` when the mismatch norm
    fails to drop below ``tol`` within ``max_iter`` iterations.
    """
    adm = adm or make_ybus(case)
    nb = case.n_bus

    bus_type = case.bus.bus_type
    ref = np.flatnonzero(bus_type == REF)
    pv = np.flatnonzero(bus_type == PV)
    pq = np.flatnonzero(bus_type == PQ)
    if ref.size != 1:
        raise ValueError("power flow requires exactly one reference bus")

    # Initial voltages: flat or from the case, with PV/REF magnitudes pinned to Vg.
    Vm = np.ones(nb) if flat_start else case.bus.Vm.copy()
    Va = np.zeros(nb) if flat_start else np.deg2rad(case.bus.Va)
    gbus = case.gen_bus_indices()
    on = case.gen.status > 0
    Vm[gbus[on]] = case.gen.Vg[on]

    Ssched = _scheduled_injection(case, adm)

    pvpq = np.concatenate([pv, pq])
    history: List[float] = []
    converged = False
    iterations = 0

    V = polar_to_complex(Va, Vm)
    mis = bus_injection(adm.Ybus, V) - Ssched
    F = np.concatenate([mis[pvpq].real, mis[pq].imag])
    norm = float(np.max(np.abs(F))) if F.size else 0.0
    history.append(norm)
    if norm < tol:
        converged = True

    while not converged and iterations < max_iter:
        dSa, dSm = dSbus_dV(adm.Ybus, V)
        J11 = dSa[np.ix_(pvpq, pvpq)].real
        J12 = dSm[np.ix_(pvpq, pq)].real
        J21 = dSa[np.ix_(pq, pvpq)].imag
        J22 = dSm[np.ix_(pq, pq)].imag
        J = sp.bmat([[J11, J12], [J21, J22]], format="csc")

        dx = spla.spsolve(J, F)
        n_pvpq = pvpq.size
        Va[pvpq] -= dx[:n_pvpq]
        Vm[pq] -= dx[n_pvpq:]

        V = polar_to_complex(Va, Vm)
        mis = bus_injection(adm.Ybus, V) - Ssched
        F = np.concatenate([mis[pvpq].real, mis[pq].imag])
        norm = float(np.max(np.abs(F))) if F.size else 0.0
        iterations += 1
        history.append(norm)
        if norm < tol:
            converged = True

    Sbus = bus_injection(adm.Ybus, V)
    Sf = (adm.Cf @ V) * np.conj(adm.Yf @ V)
    St = (adm.Ct @ V) * np.conj(adm.Yt @ V)
    return PowerFlowResult(
        converged=converged,
        iterations=iterations,
        Vm=Vm,
        Va=Va,
        Sbus=Sbus,
        Sf=Sf,
        St=St,
        max_mismatch=norm,
        history=history,
    )
