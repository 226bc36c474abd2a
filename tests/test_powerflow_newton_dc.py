"""Tests for the Newton-Raphson AC power flow and the DC power flow."""

import numpy as np
import pytest

from reference.powerflow import newton_power_flow
from repro.grid.components import PQ
from repro.powerflow import dc_power_flow, make_bdc, make_ybus


def test_newton_converges_case9(case9_fixture):
    result = newton_power_flow(case9_fixture)
    assert result.converged
    assert result.max_mismatch < 1e-8
    assert result.iterations <= 10


def test_newton_converges_case14_from_flat_start(case14_fixture):
    result = newton_power_flow(case14_fixture, flat_start=True)
    assert result.converged
    # IEEE 14-bus solution: voltage magnitudes stay within operational range.
    assert result.Vm.min() > 0.9
    assert result.Vm.max() < 1.15


def test_newton_case14_reproduces_reference_angles(case14_fixture):
    """The case ships its solved voltage profile; the solver must reproduce it."""
    result = newton_power_flow(case14_fixture)
    assert result.converged
    # Bus 14 angle around -16 degrees in the standard solution.
    idx = case14_fixture.bus_index_map()[14]
    assert np.rad2deg(result.Va[idx]) == pytest.approx(-16.04, abs=0.3)


def test_newton_history_monotone_tail(case9_fixture):
    result = newton_power_flow(case9_fixture, flat_start=True)
    assert result.converged
    # Newton converges quadratically near the solution: last step must shrink.
    assert result.history[-1] < result.history[-2]


def test_newton_mismatch_consistency(case30s_fixture):
    result = newton_power_flow(case30s_fixture)
    assert result.converged
    adm = make_ybus(case30s_fixture)
    mis = result.Sbus - (
        adm.Cg
        @ ((case30s_fixture.gen.Pg + 1j * case30s_fixture.gen.Qg) / case30s_fixture.base_mva)
        - (case30s_fixture.bus.Pd + 1j * case30s_fixture.bus.Qd) / case30s_fixture.base_mva
    )
    # PQ-bus mismatch is tiny; PV/slack buses absorb the remainder.
    pq = np.flatnonzero(case30s_fixture.bus.bus_type == PQ)
    assert np.abs(mis[pq]).max() < 1e-6


def test_newton_requires_single_reference(case9_fixture):
    broken = case9_fixture.copy()
    broken.bus.bus_type[1] = 3
    with pytest.raises(ValueError):
        newton_power_flow(broken)


def test_newton_reports_nonconvergence(case9_fixture):
    impossible = case9_fixture.copy()
    impossible.bus.Pd *= 50.0  # far beyond any feasible transfer capability
    result = newton_power_flow(impossible, max_iter=15)
    assert not result.converged


# ------------------------------------------------------------------ DC power flow
def test_dc_matrices_shapes(case14_fixture):
    mats = make_bdc(case14_fixture)
    assert mats.Bbus.shape == (14, 14)
    assert mats.Bf.shape == (20, 14)


def test_dc_flow_balance(case9_fixture):
    Pinj = np.zeros(9)
    Pinj[0] = 100.0
    Pinj[4] = -100.0
    flows = dc_power_flow(case9_fixture, Pinj)
    assert flows.shape == (9,)
    # Net flow out of bus 1 equals its injection.
    f, t = case9_fixture.branch_bus_indices()
    net = np.zeros(9)
    np.add.at(net, f, flows)
    np.add.at(net, t, -flows)
    assert net[0] == pytest.approx(100.0, abs=1e-6)
    assert net[4] == pytest.approx(-100.0, abs=1e-6)


def test_dc_flow_tracks_ac_flows_roughly(case9_fixture):
    ac = newton_power_flow(case9_fixture)
    Pg_bus = np.zeros(case9_fixture.n_bus)
    np.add.at(Pg_bus, case9_fixture.gen_bus_indices(), case9_fixture.gen.Pg)
    dc = dc_power_flow(case9_fixture, Pg_bus - case9_fixture.bus.Pd)
    ac_p = ac.Sf.real * case9_fixture.base_mva
    # DC approximation: correct signs and within ~20 MW on this small case.
    assert np.all(np.sign(dc[np.abs(ac_p) > 5]) == np.sign(ac_p[np.abs(ac_p) > 5]))
    assert np.abs(dc - ac_p).max() < 20.0


def test_dc_rejects_bad_input(case9_fixture):
    with pytest.raises(ValueError):
        dc_power_flow(case9_fixture, np.zeros(3))
