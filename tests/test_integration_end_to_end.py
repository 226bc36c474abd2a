"""End-to-end integration tests spanning every subsystem."""

import numpy as np
import pytest

from repro.core import SmartPGSim, SmartPGSimConfig, breakdown_from_evaluation
from repro.grid import get_case, sample_loads
from repro.mtl import fast_config
from repro.opf import OPFModel, solve_opf
from reference.powerflow import newton_power_flow


def test_opf_solution_is_consistent_with_power_flow(case9_fixture, opf_solution9):
    """Re-dispatching the OPF set points through the power flow reproduces the state."""
    redispatched = case9_fixture.copy()
    redispatched.gen.Pg = opf_solution9.Pg_mw.copy()
    redispatched.gen.Qg = opf_solution9.Qg_mvar.copy()
    redispatched.gen.Vg = opf_solution9.Vm[case9_fixture.gen_bus_indices()].copy()
    pf = newton_power_flow(redispatched)
    assert pf.converged
    assert np.abs(pf.Vm - opf_solution9.Vm).max() < 1e-3
    # Slack generator absorbs only rounding-level mismatch.
    slack_bus = case9_fixture.ref_bus_indices()[0]
    slack_pg = pf.Sbus.real[slack_bus] * case9_fixture.base_mva + case9_fixture.bus.Pd[slack_bus]
    assert slack_pg == pytest.approx(opf_solution9.Pg_mw[0], abs=0.5)


def test_synthetic_case_full_pipeline():
    """The complete offline/online pipeline works on a synthetic Table-II system."""
    case = get_case("case30s")
    config = SmartPGSimConfig(
        n_samples=12,
        mtl=fast_config(epochs=8),
        seed=2,
    )
    framework = SmartPGSim(case, config)
    framework.offline()
    evaluation = framework.online_evaluate(max_problems=3)
    # 12 samples with an 80/20 split leave 2-3 validation problems.
    assert 2 <= evaluation.n_problems <= 3
    assert evaluation.mean_iterations_cold > 0
    # Even a briefly trained model yields a usable warm start on most problems.
    assert evaluation.success_rate >= 0.5
    breakdown = breakdown_from_evaluation(evaluation)
    assert breakdown.smart_total > 0


def test_scenario_consistency_across_interfaces(case14_fixture):
    """Solving via case copies and via load overrides gives the same optimum."""
    model = OPFModel(case14_fixture)
    sample = sample_loads(case14_fixture, 1, seed=9)[0]
    via_override = solve_opf(case14_fixture, Pd_mw=sample.Pd, Qd_mvar=sample.Qd, model=model)
    via_copy = solve_opf(sample.apply(case14_fixture))
    assert via_override.success and via_copy.success
    assert via_override.objective == pytest.approx(via_copy.objective, rel=1e-6)


def test_larger_system_cold_start_needs_more_iterations(case9_fixture):
    """Iteration counts grow with system size (the trend behind Fig. 4's scaling)."""
    small = solve_opf(case9_fixture)
    large = solve_opf(get_case("case57s"))
    assert small.success and large.success
    assert large.iterations >= small.iterations
