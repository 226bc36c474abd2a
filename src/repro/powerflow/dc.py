"""DC (linearised) power flow.

Used to calibrate synthetic-case branch ratings, as a cheap baseline in the
examples, and to sanity-check AC results (DC flows should roughly track AC
active-power flows on lightly loaded networks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.grid.components import Case, REF


@dataclass(frozen=True)
class DCMatrices:
    """``Bbus`` (nb×nb) and ``Bf`` (nl×nb) susceptance matrices (p.u.)."""

    Bbus: sp.csr_matrix
    Bf: sp.csr_matrix


def make_bdc(case: Case) -> DCMatrices:
    """Build the DC power-flow matrices (phase shifters are ignored)."""
    nb, nl = case.n_bus, case.n_branch
    br = case.branch
    status = (br.status > 0).astype(float)
    tap = np.where(br.ratio == 0.0, 1.0, br.ratio)
    b = status / (br.x * tap)

    f, t = case.branch_bus_indices()
    rows = np.arange(nl)
    Bf = sp.csr_matrix(
        (np.concatenate([b, -b]), (np.concatenate([rows, rows]), np.concatenate([f, t]))),
        shape=(nl, nb),
    )
    Cft = sp.csr_matrix(
        (
            np.concatenate([np.ones(nl), -np.ones(nl)]),
            (np.concatenate([rows, rows]), np.concatenate([f, t])),
        ),
        shape=(nl, nb),
    )
    Bbus = Cft.T @ Bf
    return DCMatrices(Bbus=Bbus.tocsr(), Bf=Bf)


def dc_power_flow(case: Case, Pinj_mw: np.ndarray) -> np.ndarray:
    """Solve the DC power flow for net injections ``Pinj_mw`` (MW per bus).

    Returns branch active-power flows in MW (from-end convention).  The
    reference-bus injection is implicitly adjusted to balance the system, as
    usual for DC power flow.
    """
    Pinj_mw = np.asarray(Pinj_mw, dtype=float)
    if Pinj_mw.shape != (case.n_bus,):
        raise ValueError("Pinj_mw must have one entry per bus")
    mats = make_bdc(case)
    ref = np.flatnonzero(case.bus.bus_type == REF)
    if ref.size != 1:
        raise ValueError("DC power flow requires exactly one reference bus")
    keep = np.setdiff1d(np.arange(case.n_bus), ref)

    P = Pinj_mw / case.base_mva
    theta = np.zeros(case.n_bus)
    B_kk = mats.Bbus[np.ix_(keep, keep)].tocsc()
    theta[keep] = spla.spsolve(B_kk, P[keep])
    flows_pu = mats.Bf @ theta
    return flows_pu * case.base_mva
