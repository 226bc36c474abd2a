"""Finite-difference verification of the first-derivative kernels."""

import numpy as np
import pytest

from repro.powerflow import (
    dAbr_dV,
    dSbr_dV,
    dSbus_dV,
    make_ybus,
    polar_to_complex,
)


def _random_voltage(n, rng, spread=0.08):
    Va = spread * rng.standard_normal(n)
    Vm = 1.0 + spread * rng.standard_normal(n) * 0.5
    return Va, Vm


def _fd_jacobian(fn, Va, Vm, m, eps=1e-7):
    """Central finite differences of a complex vector function of (Va, Vm)."""
    n = Va.size
    J_a = np.zeros((m, n), dtype=complex)
    J_m = np.zeros((m, n), dtype=complex)
    for i in range(n):
        for arr, J in ((Va, J_a), (Vm, J_m)):
            orig = arr[i]
            arr[i] = orig + eps
            fp = fn(Va, Vm)
            arr[i] = orig - eps
            fm = fn(Va, Vm)
            arr[i] = orig
            J[:, i] = (fp - fm) / (2 * eps)
    return J_a, J_m


@pytest.mark.parametrize("case_name", ["case9", "case14"])
def test_dSbus_dV_matches_finite_differences(case_name, case9_fixture, case14_fixture, rng):
    case = case9_fixture if case_name == "case9" else case14_fixture
    adm = make_ybus(case)
    Va, Vm = _random_voltage(case.n_bus, rng)

    def sbus(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        return V * np.conj(adm.Ybus @ V)

    dSa, dSm = dSbus_dV(adm.Ybus, polar_to_complex(Va, Vm))
    Jfd_a, Jfd_m = _fd_jacobian(sbus, Va, Vm, case.n_bus)
    assert np.abs(dSa.toarray() - Jfd_a).max() < 1e-6
    assert np.abs(dSm.toarray() - Jfd_m).max() < 1e-6


def test_dSbr_dV_matches_finite_differences(case9_fixture, rng):
    case = case9_fixture
    adm = make_ybus(case)
    Va, Vm = _random_voltage(case.n_bus, rng)

    def sf(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        return (adm.Cf @ V) * np.conj(adm.Yf @ V)

    dSa, dSm, Sf = dSbr_dV(adm.Yf, adm.Cf, polar_to_complex(Va, Vm))
    Jfd_a, Jfd_m = _fd_jacobian(sf, Va, Vm, case.n_branch)
    assert np.abs(dSa.toarray() - Jfd_a).max() < 1e-6
    assert np.abs(dSm.toarray() - Jfd_m).max() < 1e-6
    assert np.allclose(Sf, sf(Va, Vm))


def test_dSbr_dV_to_side(case14_fixture, rng):
    case = case14_fixture
    adm = make_ybus(case)
    Va, Vm = _random_voltage(case.n_bus, rng)

    def st(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        return (adm.Ct @ V) * np.conj(adm.Yt @ V)

    dSa, dSm, St = dSbr_dV(adm.Yt, adm.Ct, polar_to_complex(Va, Vm))
    Jfd_a, Jfd_m = _fd_jacobian(st, Va, Vm, case.n_branch)
    assert np.abs(dSa.toarray() - Jfd_a).max() < 1e-6
    assert np.abs(dSm.toarray() - Jfd_m).max() < 1e-6


def test_dAbr_dV_matches_finite_differences(case9_fixture, rng):
    case = case9_fixture
    adm = make_ybus(case)
    Va, Vm = _random_voltage(case.n_bus, rng)

    def asq(Va_, Vm_):
        V = polar_to_complex(Va_, Vm_)
        Sf = (adm.Cf @ V) * np.conj(adm.Yf @ V)
        return (np.abs(Sf) ** 2).astype(complex)

    dSa, dSm, Sf = dSbr_dV(adm.Yf, adm.Cf, polar_to_complex(Va, Vm))
    dAa, dAm = dAbr_dV(dSa, dSm, Sf)
    Jfd_a, Jfd_m = _fd_jacobian(asq, Va, Vm, case.n_branch)
    assert np.abs(dAa.toarray() - Jfd_a.real).max() < 1e-5
    assert np.abs(dAm.toarray() - Jfd_m.real).max() < 1e-5
