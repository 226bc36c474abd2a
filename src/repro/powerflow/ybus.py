"""Admittance-matrix and connection-matrix construction.

All matrices are SciPy CSR sparse matrices built with vectorised expressions;
these are the building blocks every other power-flow/OPF kernel uses.

Conventions follow MATPOWER: branch ``ratio == 0`` denotes a transmission line
(tap ratio 1), the line-charging susceptance ``b`` is the *total* charging and
is split evenly between the two branch ends, and bus shunts ``Gs + jBs`` are
specified in MW/MVAr consumed at 1.0 p.u. voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.grid.components import Case


@dataclass(frozen=True)
class AdmittanceMatrices:
    """Bus and branch admittance matrices plus connection matrices.

    Attributes
    ----------
    Ybus:
        ``(nb, nb)`` complex bus admittance matrix.
    Yf, Yt:
        ``(nl, nb)`` branch admittance matrices such that the complex current
        injected at the from / to end of branch ``l`` is ``(Yf @ V)[l]`` /
        ``(Yt @ V)[l]``.
    Cf, Ct:
        ``(nl, nb)`` branch-bus incidence matrices (1 at the from / to bus).
    Cg:
        ``(nb, ng)`` generator connection matrix (1 at the generator's bus).
    """

    Ybus: sp.csr_matrix
    Yf: sp.csr_matrix
    Yt: sp.csr_matrix
    Cf: sp.csr_matrix
    Ct: sp.csr_matrix
    Cg: sp.csr_matrix


def make_connection_matrices(case: Case) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Return ``(Cf, Ct, Cg)`` incidence matrices for ``case``.

    Out-of-service branches/generators still get a row/column (with their
    incidence), mirroring MATPOWER; status is applied when admittances are
    formed and when generator injections are summed.
    """
    nb, nl, ng = case.n_bus, case.n_branch, case.n_gen
    f, t = case.branch_bus_indices()
    gbus = case.gen_bus_indices()
    rows = np.arange(nl)
    Cf = sp.csr_matrix((np.ones(nl), (rows, f)), shape=(nl, nb))
    Ct = sp.csr_matrix((np.ones(nl), (rows, t)), shape=(nl, nb))
    Cg = sp.csr_matrix((np.ones(ng), (gbus, np.arange(ng))), shape=(nb, ng))
    return Cf, Ct, Cg


def branch_admittances(
    case: Case,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-branch two-port admittances ``(Yff, Yft, Ytf, Ytt)``.

    The from-end current of branch ``l`` is ``Yff[l]·V_f + Yft[l]·V_t`` and
    the to-end current ``Ytf[l]·V_f + Ytt[l]·V_t``; out-of-service branches
    get zeros.
    """
    br = case.branch
    status = (br.status > 0).astype(float)

    Ys = status / (br.r + 1j * br.x)  # series admittance (0 for open branches)
    Bc = status * br.b  # total line charging
    tap = np.where(br.ratio == 0.0, 1.0, br.ratio).astype(complex)
    tap = tap * np.exp(1j * np.deg2rad(br.angle))

    Ytt = Ys + 1j * Bc / 2.0
    Yff = Ytt / (tap * np.conj(tap))
    Yft = -Ys / np.conj(tap)
    Ytf = -Ys / tap
    return Yff, Yft, Ytf, Ytt


def make_ybus(case: Case) -> AdmittanceMatrices:
    """Build the full set of admittance / connection matrices for ``case``."""
    nb, nl = case.n_bus, case.n_branch
    Yff, Yft, Ytf, Ytt = branch_admittances(case)

    Cf, Ct, Cg = make_connection_matrices(case)
    rows = np.arange(nl)
    Yf = (
        sp.csr_matrix((Yff, (rows, rows)), shape=(nl, nl)) @ Cf
        + sp.csr_matrix((Yft, (rows, rows)), shape=(nl, nl)) @ Ct
    )
    Yt = (
        sp.csr_matrix((Ytf, (rows, rows)), shape=(nl, nl)) @ Cf
        + sp.csr_matrix((Ytt, (rows, rows)), shape=(nl, nl)) @ Ct
    )

    Ysh = (case.bus.Gs + 1j * case.bus.Bs) / case.base_mva
    Ybus = Cf.T @ Yf + Ct.T @ Yt + sp.diags(Ysh, format="csr", shape=(nb, nb))

    return AdmittanceMatrices(
        Ybus=Ybus.tocsr(),
        Yf=Yf.tocsr(),
        Yt=Yt.tocsr(),
        Cf=Cf,
        Ct=Ct,
        Cg=Cg,
    )
