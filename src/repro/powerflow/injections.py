"""Complex power injections and mismatch equations.

All quantities are in per-unit on the system MVA base unless stated otherwise.
Voltages are represented either as a complex phasor vector ``V`` or as the
polar pair ``(Va, Vm)`` in radians / p.u.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.grid.components import Case
from repro.powerflow.ybus import AdmittanceMatrices


def polar_to_complex(Va: np.ndarray, Vm: np.ndarray) -> np.ndarray:
    """Complex voltage phasors from angle (rad) and magnitude (p.u.)."""
    return Vm * np.exp(1j * Va)


def bus_injection(Ybus: sp.spmatrix, V: np.ndarray) -> np.ndarray:
    """Complex power injected *into the network* at each bus: ``S = V ⊙ conj(Ybus V)``."""
    return V * np.conj(Ybus @ V)


def gen_injection(case: Case, Cg: sp.spmatrix, Pg: np.ndarray, Qg: np.ndarray) -> np.ndarray:
    """Complex generator injection aggregated per bus, in p.u.

    ``Pg``/``Qg`` are per-generator outputs in p.u.; out-of-service units are
    masked out.
    """
    status = (case.gen.status > 0).astype(float)
    return Cg @ ((Pg + 1j * Qg) * status)


def load_injection(case: Case, Pd: np.ndarray | None = None, Qd: np.ndarray | None = None) -> np.ndarray:
    """Complex load per bus in p.u. (defaults to the case's nominal load)."""
    Pd = case.bus.Pd if Pd is None else np.asarray(Pd, dtype=float)
    Qd = case.bus.Qd if Qd is None else np.asarray(Qd, dtype=float)
    return (Pd + 1j * Qd) / case.base_mva


def power_balance_mismatch(
    case: Case,
    adm: AdmittanceMatrices,
    V: np.ndarray,
    Pg: np.ndarray,
    Qg: np.ndarray,
    Pd: np.ndarray | None = None,
    Qd: np.ndarray | None = None,
) -> np.ndarray:
    """AC nodal power-balance mismatch ``S_bus(V) + S_load - C_g S_gen`` (complex, p.u.).

    A feasible operating point drives both the real and the imaginary parts to
    zero (Eqn. 2 of the paper).  The sign convention matches MATPOWER's
    ``opf_power_balance_fcn``: positive mismatch means the network plus loads
    consume more than the generators inject.
    """
    Sbus = bus_injection(adm.Ybus, V)
    Sload = load_injection(case, Pd, Qd)
    Sgen = gen_injection(case, adm.Cg, Pg, Qg)
    return Sbus + Sload - Sgen


def mismatch_norm(mis: np.ndarray) -> float:
    """Infinity norm of the stacked real/reactive mismatch."""
    return float(np.max(np.abs(np.concatenate([mis.real, mis.imag]))))
