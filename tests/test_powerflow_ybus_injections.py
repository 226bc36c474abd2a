"""Tests for admittance construction and power-injection kernels."""

import numpy as np
import pytest

from reference.powerflow import branch_flows
from repro.powerflow import (
    bus_injection,
    load_injection,
    make_connection_matrices,
    make_ybus,
    mismatch_norm,
    polar_to_complex,
    power_balance_mismatch,
)


def test_connection_matrices_shapes(case14_fixture):
    Cf, Ct, Cg = make_connection_matrices(case14_fixture)
    assert Cf.shape == (20, 14)
    assert Ct.shape == (20, 14)
    assert Cg.shape == (14, 5)
    # One entry per row / column.
    assert np.all(np.asarray(Cf.sum(axis=1)).ravel() == 1)
    assert np.all(np.asarray(Cg.sum(axis=0)).ravel() == 1)


def test_ybus_shape_and_symmetry_without_taps(case9_fixture):
    adm = make_ybus(case9_fixture)
    Y = adm.Ybus.toarray()
    assert Y.shape == (9, 9)
    # case9 has no transformers or phase shifters, so Ybus is symmetric.
    assert np.allclose(Y, Y.T)


def test_ybus_symmetric_with_real_taps_asymmetric_with_phase_shift(case14_fixture):
    # Off-nominal (real) tap ratios keep Ybus symmetric ...
    Y = make_ybus(case14_fixture).Ybus.toarray()
    assert np.allclose(Y, Y.T)
    # ... but a phase-shifting transformer breaks the symmetry.
    shifted = case14_fixture.copy()
    shifted.branch.angle[7] = 5.0
    Y_shift = make_ybus(shifted).Ybus.toarray()
    assert not np.allclose(Y_shift, Y_shift.T)


def test_ybus_row_sums_without_shunts(case9_fixture):
    # With no bus shunts, the row sums equal the total line-charging seen by
    # each bus; for a lossless check simply ensure off-diagonals are -series
    # admittance of the connecting branch.
    case = case9_fixture
    adm = make_ybus(case)
    Y = adm.Ybus.toarray()
    f, t = case.branch_bus_indices()
    for l in range(case.n_branch):
        ys = 1.0 / (case.branch.r[l] + 1j * case.branch.x[l])
        assert Y[f[l], t[l]] == pytest.approx(-ys, rel=1e-12)


def test_yf_yt_reproduce_branch_flows(case9_fixture):
    adm = make_ybus(case9_fixture)
    V = polar_to_complex(np.zeros(9), np.ones(9))
    Sf, St = branch_flows(adm, V)
    assert Sf.shape == (9,)
    # Flat voltage profile: series current is zero, only charging appears.
    assert np.allclose(Sf.real, 0.0, atol=1e-12)


def test_out_of_service_branch_removed_from_ybus(case9_fixture):
    modified = case9_fixture.copy()
    modified.branch.status[1] = 0
    Y_full = make_ybus(case9_fixture).Ybus.toarray()
    Y_reduced = make_ybus(modified).Ybus.toarray()
    f, t = case9_fixture.branch_bus_indices()
    assert Y_full[f[1], t[1]] != 0
    assert Y_reduced[f[1], t[1]] == 0


def test_bus_shunt_enters_diagonal(case14_fixture):
    # Bus 9 of case14 carries a 19 MVAr capacitive shunt: removing it must
    # lower that diagonal's susceptance by exactly Bs / baseMVA.
    idx = case14_fixture.bus_index_map()[9]
    with_shunt = make_ybus(case14_fixture).Ybus.toarray()[idx, idx]
    stripped = case14_fixture.copy()
    stripped.bus.Bs[idx] = 0.0
    without_shunt = make_ybus(stripped).Ybus.toarray()[idx, idx]
    assert (with_shunt - without_shunt).imag == pytest.approx(0.19, rel=1e-9)


def test_bus_injection_conservation(case9_fixture):
    """Total injected power equals total series + shunt losses (lossless reactive check)."""
    adm = make_ybus(case9_fixture)
    rng = np.random.default_rng(0)
    V = polar_to_complex(0.05 * rng.standard_normal(9), 1 + 0.02 * rng.standard_normal(9))
    Sbus = bus_injection(adm.Ybus, V)
    Sf, St = branch_flows(adm, V)
    # Power balance: sum of bus injections equals sum of from+to branch flows
    # (no bus shunts in case9).
    assert np.sum(Sbus) == pytest.approx(np.sum(Sf + St), rel=1e-10)


def test_load_injection_default_and_override(case9_fixture):
    nominal = load_injection(case9_fixture)
    assert nominal.sum().real == pytest.approx(3.15)
    override = load_injection(case9_fixture, Pd=np.zeros(9), Qd=np.zeros(9))
    assert np.allclose(override, 0)


def test_power_balance_mismatch_zero_at_solution(case9_fixture, opf_model9, opf_solution9):
    parts = opf_model9.idx.split(opf_solution9.x)
    V = polar_to_complex(parts["Va"], parts["Vm"])
    mis = power_balance_mismatch(
        case9_fixture, opf_model9.adm, V, parts["Pg"], parts["Qg"]
    )
    assert mismatch_norm(mis) < 1e-5


def test_mismatch_norm_is_inf_norm():
    mis = np.array([0.1 + 0.2j, -0.5 + 0.05j])
    assert mismatch_norm(mis) == pytest.approx(0.5)
