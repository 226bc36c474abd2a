"""Tests of the scenario sweep substrate, the cluster scaling model and utilities."""

import numpy as np
import pytest

from repro.parallel import (
    ClusterModel,
    PAPER_WORKER_COUNTS,
    calibrate_from_inference,
    generate_scenarios,
    run_scenario_sweep,
)
from repro.utils import Timer, ensure_rng, spawn_rngs, timed
from repro.utils.rng import derive_seed


# ------------------------------------------------------------------------ scenarios
def test_generate_scenarios_counts_and_bounds(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 20, variation=0.1, seed=0)
    assert len(scenarios) == 20
    nominal = case9_fixture.bus.Pd
    for s in scenarios:
        loaded = nominal > 0
        assert np.all(s.Pd[loaded] >= 0.9 * nominal[loaded] - 1e-9)
        assert np.all(s.Pd[loaded] <= 1.1 * nominal[loaded] + 1e-9)
        assert s.outage_branches == ()


def test_generate_scenarios_with_contingencies(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 30, contingency_fraction=1.0, seed=1)
    outages = [s.outage_branches for s in scenarios if s.outage_branches]
    assert len(outages) == 30 and all(len(o) == 1 for o in outages)
    applied = scenarios[0].apply(case9_fixture)
    assert applied.branch.status[scenarios[0].outage_branches[0]] == 0
    # Original untouched.
    assert case9_fixture.branch.status.sum() == 9


def test_scenario_chunking_covers_everything(case9_fixture):
    from repro.parallel import make_microbatches

    scenarios = generate_scenarios(case9_fixture, 11, seed=2)
    chunks = make_microbatches(list(scenarios), n_workers=3)
    assert sorted(i for chunk in chunks for i in chunk.positions) == list(range(11))
    # Two micro-batches per worker: ceil(11 / 6) scenarios each.
    assert max(len(c) for c in chunks) == 2
    features = scenarios.feature_matrix(case9_fixture.base_mva)
    assert features.shape == (11, 18)


def test_generate_scenarios_validation(case9_fixture):
    with pytest.raises(ValueError):
        generate_scenarios(case9_fixture, 5, contingency_fraction=1.5)


# ------------------------------------------------------------------------ pool sweep
def test_scenario_sweep_serial(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 4, seed=3)
    result = run_scenario_sweep(case9_fixture, scenarios, n_workers=1)
    assert result.n_scenarios == 4
    assert result.success_rate == 1.0
    assert result.wall_seconds > 0
    assert result.total_solver_seconds() > 0
    assert result.throughput > 0
    assert [o.scenario_id for o in result.outcomes] == [0, 1, 2, 3]


def test_scenario_sweep_warm_starts(case9_fixture, trained_trainer9):
    scenarios = generate_scenarios(case9_fixture, 3, seed=4)
    warm = [
        trained_trainer9.warm_start_for(s.feature_vector(case9_fixture.base_mva))
        for s in scenarios
    ]
    cold = run_scenario_sweep(case9_fixture, scenarios, n_workers=1)
    warm_result = run_scenario_sweep(case9_fixture, scenarios, warm_starts=warm, n_workers=1)
    assert warm_result.success_rate == 1.0
    mean_cold = np.mean([o.iterations for o in cold.outcomes])
    mean_warm = np.mean([o.iterations for o in warm_result.outcomes])
    assert mean_warm < mean_cold


def test_scenario_sweep_applies_branch_outage(case14_fixture):
    """An N-1 scenario must be solved on the outaged network, not the base one."""
    from repro.opf import solve_opf
    from repro.parallel.scenarios import ScenarioSet

    case = case14_fixture
    scenarios = generate_scenarios(case, 1, contingency_fraction=1.0, seed=6)
    scenario = scenarios[0]
    assert scenario.outage_branches

    direct = solve_opf(scenario.apply(case))
    intact = solve_opf(case, Pd_mw=scenario.Pd, Qd_mvar=scenario.Qd)
    assert direct.success and intact.success
    # The outage actually changes the dispatch (otherwise this test is vacuous).
    assert abs(direct.objective - intact.objective) > 1e-8

    sweep = run_scenario_sweep(case, ScenarioSet(case.name, [scenario]), n_workers=1)
    assert sweep.success_rate == 1.0
    assert sweep.outcomes[0].objective == pytest.approx(direct.objective, rel=1e-8)


def test_scenario_sweep_validation(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 2, seed=5)
    with pytest.raises(ValueError):
        run_scenario_sweep(case9_fixture, scenarios, warm_starts=[None], n_workers=1)
    with pytest.raises(ValueError):
        run_scenario_sweep(case9_fixture, scenarios, n_workers=0)


# --------------------------------------------------------------------- cluster model
def test_cluster_model_strong_scaling_monotone():
    model = ClusterModel(throughput=100.0)
    speedups = model.strong_scaling(10_000, PAPER_WORKER_COUNTS)
    assert speedups[1] == pytest.approx(1.0)
    values = [speedups[w] for w in PAPER_WORKER_COUNTS]
    assert all(b > a for a, b in zip(values, values[1:]))
    # Sub-linear: communication and imbalance keep it below ideal.
    assert speedups[128] < 128


def test_cluster_model_weak_scaling_rate_increases():
    model = ClusterModel(throughput=50.0)
    rates = model.weak_scaling(1000, [1, 16, 64])
    assert rates[16] > rates[1]
    assert rates[64] > rates[16]


def test_cluster_model_efficiency_decreases():
    model = ClusterModel(throughput=200.0)
    eff = model.efficiency(10_000, [1, 16, 128])
    assert eff[1] == pytest.approx(1.0)
    assert eff[128] < eff[16] <= 1.0


def test_cluster_model_validation():
    with pytest.raises(ValueError):
        ClusterModel(throughput=0.0)
    with pytest.raises(ValueError):
        ClusterModel(throughput=1.0, broadcast_base=-1)
    with pytest.raises(ValueError):
        ClusterModel(throughput=1.0).time_for(0, 1)


def test_calibrate_from_inference_measures_throughput():
    model = calibrate_from_inference(lambda batch: batch * 2, np.ones((256, 4)), repeats=2)
    assert model.throughput > 0
    with pytest.raises(ValueError):
        calibrate_from_inference(lambda b: b, np.ones((2, 2)), repeats=0)


# ----------------------------------------------------------------------------- utils
def test_ensure_rng_accepts_everything():
    assert isinstance(ensure_rng(None), np.random.Generator)
    gen = ensure_rng(5)
    assert ensure_rng(gen) is gen
    assert isinstance(ensure_rng(np.random.SeedSequence(1)), np.random.Generator)


def test_spawn_rngs_independent_and_deterministic():
    a = spawn_rngs(7, 3)
    b = spawn_rngs(7, 3)
    assert len(a) == 3
    assert a[0].random() == b[0].random()
    assert a[1].random() != a[2].random()
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_derive_seed_stable():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)


def test_timer_sections_and_merge():
    timer = Timer()
    with timer.section("a"):
        pass
    timer.add("b", 1.5)
    assert timer.total("b") == pytest.approx(1.5)
    assert timer.overall() >= 1.5
    other = Timer()
    other.add("b", 0.5)
    timer.merge(other)
    assert timer.total("b") == pytest.approx(2.0)
    assert timer.as_dict()["b"] == pytest.approx(2.0)


def test_timed_contextmanager():
    with timed() as t:
        sum(range(1000))
    assert t.seconds >= 0
