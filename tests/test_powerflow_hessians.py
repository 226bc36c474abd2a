"""Finite-difference verification of the second-derivative (Hessian) kernels."""

import numpy as np
import pytest

from reference.powerflow_hessians import d2ASbr_dV2, d2Sbr_dV2, d2Sbus_dV2
from repro.powerflow import (
    dAbr_dV,
    dSbr_dV,
    dSbus_dV,
    make_ybus,
    polar_to_complex,
)


def _fd_hessian(grad_fn, Va, Vm, eps=1e-6):
    """Finite differences of a gradient function returning a (2n,) vector."""
    n = Va.size
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(2 * n):
        Vap, Vmp = Va.copy(), Vm.copy()
        Vam, Vmm = Va.copy(), Vm.copy()
        if i < n:
            Vap[i] += eps
            Vam[i] -= eps
        else:
            Vmp[i - n] += eps
            Vmm[i - n] -= eps
        H[:, i] = (grad_fn(Vap, Vmp) - grad_fn(Vam, Vmm)) / (2 * eps)
    return H


def _blocks_to_full(Gaa, Gav, Gva, Gvv):
    return np.block([[Gaa.toarray(), Gav.toarray()], [Gva.toarray(), Gvv.toarray()]])


def test_d2Sbus_dV2_matches_finite_differences(case9_fixture, rng):
    case = case9_fixture
    adm = make_ybus(case)
    nb = case.n_bus
    Va = 0.06 * rng.standard_normal(nb)
    Vm = 1.0 + 0.03 * rng.standard_normal(nb)
    lam = rng.standard_normal(nb)

    def grad(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        dSa, dSm = dSbus_dV(adm.Ybus, V)
        return np.concatenate([dSa.T @ lam, dSm.T @ lam])

    H = _blocks_to_full(*d2Sbus_dV2(adm.Ybus, polar_to_complex(Va, Vm), lam))
    Hfd = _fd_hessian(grad, Va, Vm)
    assert np.abs(H - Hfd).max() < 1e-5 * max(1.0, np.abs(Hfd).max())


def test_d2Sbus_dV2_with_complex_multiplier(case14_fixture, rng):
    case = case14_fixture
    adm = make_ybus(case)
    nb = case.n_bus
    Va = 0.05 * rng.standard_normal(nb)
    Vm = 1.0 + 0.02 * rng.standard_normal(nb)
    lam = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)

    def grad(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        dSa, dSm = dSbus_dV(adm.Ybus, V)
        return np.concatenate([dSa.T @ lam, dSm.T @ lam])

    H = _blocks_to_full(*d2Sbus_dV2(adm.Ybus, polar_to_complex(Va, Vm), lam))
    Hfd = _fd_hessian(grad, Va, Vm)
    assert np.abs(H - Hfd).max() < 1e-5 * max(1.0, np.abs(Hfd).max())


def test_d2Sbr_dV2_matches_finite_differences(case9_fixture, rng):
    case = case9_fixture
    adm = make_ybus(case)
    nb, nl = case.n_bus, case.n_branch
    Va = 0.05 * rng.standard_normal(nb)
    Vm = 1.0 + 0.03 * rng.standard_normal(nb)
    lam = rng.standard_normal(nl)

    def grad(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        dSa, dSm, _ = dSbr_dV(adm.Yf, adm.Cf, V)
        return np.concatenate([dSa.T @ lam, dSm.T @ lam])

    H = _blocks_to_full(*d2Sbr_dV2(adm.Cf, adm.Yf, polar_to_complex(Va, Vm), lam))
    Hfd = _fd_hessian(grad, Va, Vm)
    assert np.abs(H - Hfd).max() < 1e-5 * max(1.0, np.abs(Hfd).max())


@pytest.mark.parametrize("side", ["from", "to"])
def test_d2ASbr_dV2_matches_finite_differences(case9_fixture, rng, side):
    case = case9_fixture
    adm = make_ybus(case)
    nb, nl = case.n_bus, case.n_branch
    Ybr = adm.Yf if side == "from" else adm.Yt
    Cbr = adm.Cf if side == "from" else adm.Ct
    Va = 0.05 * rng.standard_normal(nb)
    Vm = 1.0 + 0.03 * rng.standard_normal(nb)
    mu = np.abs(rng.standard_normal(nl))

    def grad(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        dSa, dSm, Sbr = dSbr_dV(Ybr, Cbr, V)
        dAa, dAm = dAbr_dV(dSa, dSm, Sbr)
        return np.concatenate([dAa.T @ mu, dAm.T @ mu]).astype(complex)

    V = polar_to_complex(Va, Vm)
    dSa, dSm, Sbr = dSbr_dV(Ybr, Cbr, V)
    H = _blocks_to_full(*d2ASbr_dV2(dSa, dSm, Sbr, Cbr, Ybr, V, mu))
    Hfd = _fd_hessian(grad, Va, Vm)
    assert np.abs(H - Hfd.real).max() < 1e-4 * max(1.0, np.abs(Hfd).max())


def test_hessian_blocks_are_symmetric_overall(case9_fixture, rng):
    """The assembled (Va,Vm) Hessian of a real scalar function must be symmetric."""
    case = case9_fixture
    adm = make_ybus(case)
    nb = case.n_bus
    V = polar_to_complex(0.04 * rng.standard_normal(nb), 1 + 0.02 * rng.standard_normal(nb))
    lam = rng.standard_normal(nb)
    Gaa, Gav, Gva, Gvv = d2Sbus_dV2(adm.Ybus, V, lam)
    H_real = np.block(
        [[Gaa.toarray().real, Gav.toarray().real], [Gva.toarray().real, Gvv.toarray().real]]
    )
    assert np.abs(H_real - H_real.T).max() < 1e-10
