"""Tests of the batched warm-start serving engine, fleet and fallback policies."""

import numpy as np
import pytest

from repro.engine import (
    CircuitBreaker,
    ColdRestartFallback,
    NoFallback,
    RelaxedWarmRetryFallback,
    WarmStartEngine,
    get_fallback_policy,
)
from repro.data import generate_dataset
from repro.opf import OPFOptions, certify_opf, relaxed_options, solve_opf
from repro.mips.options import MIPSOptions
from repro.parallel import ScenarioSet, SolverFleet, generate_scenarios, run_scenario_sweep


@pytest.fixture(scope="module")
def engine9(trained_trainer9):
    """Serving engine wrapping the shared trained case9 model."""
    return WarmStartEngine.from_trainer(trained_trainer9)


# -------------------------------------------------------------- batched inference
def test_warm_starts_for_is_batched(trained_trainer9, dataset9):
    inputs = dataset9.inputs[:6]
    warms = trained_trainer9.warm_starts_for(inputs)
    assert len(warms) == 6
    for i, warm in enumerate(warms):
        per_row = trained_trainer9.warm_start_for(inputs[i])
        np.testing.assert_allclose(warm.x, per_row.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(warm.mu, per_row.mu, rtol=0, atol=1e-12)
        assert np.all(warm.mu > 0) and np.all(warm.z > 0)


def test_engine_evaluate_matches_sequential_loop(engine9, trained_trainer9, case9_fixture, dataset9, opf_model9):
    """The engine's batched evaluation reproduces the per-row sequential loop."""
    subset = dataset9.subset(np.arange(5))
    evaluation = engine9.evaluate(subset)
    assert evaluation.n_problems == 5
    for i, record in enumerate(evaluation.records):
        warm = trained_trainer9.warm_start_for(subset.inputs[i])
        result = solve_opf(
            case9_fixture,
            warm_start=warm,
            Pd_mw=subset.Pd_mw[i],
            Qd_mvar=subset.Qd_mw[i],
            model=opf_model9,
        )
        assert record.success == result.success
        assert record.iterations_warm == result.iterations
        assert record.cost_warm == pytest.approx(result.objective, rel=1e-9)


def test_engine_evaluate_max_problems_and_validation(engine9, dataset9):
    limited = engine9.evaluate(dataset9, max_problems=2)
    assert limited.n_problems == 2
    with pytest.raises(ValueError):
        engine9.evaluate(dataset9, max_problems=0)


def test_engine_serve_scenarios(engine9, case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 4, seed=3)
    sweep = engine9.serve(scenarios)
    assert sweep.n_scenarios == 4
    assert sweep.success_rate >= 0.75
    # The fleet persists across calls; close() tears it down (and a later
    # serve lazily starts a fresh one).
    assert engine9.serve(scenarios).n_scenarios == 4
    assert 1 in engine9._fleets
    engine9.close()
    assert not engine9._fleets


def test_engine_serve_matches_scalar_warm_solves(trained_trainer9, case9_fixture, scalar_reference):
    """The engine's lockstep serving reproduces warm-started one-row solves,
    each a certified KKT point."""
    scenarios = generate_scenarios(case9_fixture, 6, variation=0.05, seed=13)
    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        warm_starts = engine.warm_starts_for(scenarios.feature_matrix(case9_fixture.base_mva))
        sweep = engine.serve(scenarios)
    assert sweep.n_scenarios == len(scenarios)
    for scenario, warm, b in zip(scenarios, warm_starts, sweep.outcomes):
        a = scalar_reference(case9_fixture, scenario, warm_start=warm)
        assert a.success == b.success
        if a.success:
            assert a.iterations == b.iterations
            assert a.objective == pytest.approx(b.objective, rel=1e-8)
            assert certify_opf(case9_fixture, a, scenario.Pd, scenario.Qd).holds()


def test_engine_serve_loads_matrix(engine9, case9_fixture):
    Pd = np.vstack([case9_fixture.bus.Pd, case9_fixture.bus.Pd * 1.02])
    Qd = np.vstack([case9_fixture.bus.Qd, case9_fixture.bus.Qd * 1.02])
    sweep = engine9.serve_loads(Pd, Qd)
    assert sweep.n_scenarios == 2
    assert sweep.success_rate == 1.0
    with pytest.raises(ValueError):
        engine9.serve_loads(Pd, Qd[:1])


# -------------------------------------------------------------- fallback policies
def test_get_fallback_policy_resolution():
    assert isinstance(get_fallback_policy("cold_restart"), ColdRestartFallback)
    assert isinstance(get_fallback_policy("relaxed_warm"), RelaxedWarmRetryFallback)
    assert isinstance(get_fallback_policy("none"), NoFallback)
    assert isinstance(get_fallback_policy(None), NoFallback)
    policy = RelaxedWarmRetryFallback(tolerance_scale=10.0)
    assert get_fallback_policy(policy) is policy
    with pytest.raises(ValueError):
        get_fallback_policy("bogus")


def test_relaxed_options_scales_all_tolerances():
    base = OPFOptions()
    relaxed = relaxed_options(base, 100.0)
    for name in ("feastol", "gradtol", "comptol", "costtol"):
        assert getattr(relaxed.mips, name) == pytest.approx(getattr(base.mips, name) * 100.0)
    # Untouched knobs carry over.
    assert relaxed.mips.max_it == base.mips.max_it
    assert relaxed.flow_limits == base.flow_limits
    with pytest.raises(ValueError):
        relaxed_options(base, 0.0)


class _Result:
    def __init__(self, success):
        self.success = success


def test_relaxed_warm_retry_policy_recovery_order():
    calls = []

    def solve(warm, options=None):
        calls.append((warm, options))
        return _Result(success=len(calls) >= 2)

    policy = RelaxedWarmRetryFallback(tolerance_scale=50.0)
    base = OPFOptions()
    warm = object()
    result = policy.recover(solve, warm, _Result(False), base)
    # First call: warm retry with relaxed tolerances; second: cold restart.
    assert result.success
    assert calls[0][0] is warm
    assert calls[0][1].mips.feastol == pytest.approx(base.mips.feastol * 50.0)
    assert calls[1][0] is None and calls[1][1] is base


def test_no_fallback_keeps_failure():
    policy = NoFallback()
    assert policy.recover(lambda *a, **k: _Result(True), None, _Result(False), OPFOptions()) is None


def test_sweep_fallback_recovers_failed_warm_solve(case9_fixture):
    """A starved warm solve fails; the cold-restart policy recovers it in-worker."""
    scenarios = generate_scenarios(case9_fixture, 2, seed=5)
    # A tiny iteration budget guarantees the (cold) first attempt fails ...
    starving = OPFOptions(mips=MIPSOptions(max_it=2))

    class _RestartWithDefaults(ColdRestartFallback):
        def recover(self, solve, warm, failed, options):
            # ... while the recovery runs with a workable budget.
            return solve(None, OPFOptions())

    sweep = run_scenario_sweep(
        case9_fixture,
        scenarios,
        options=starving,
        fallback=_RestartWithDefaults(),
    )
    for outcome in sweep.outcomes:
        assert not outcome.success
        assert outcome.iterations == 2
        assert outcome.used_fallback and outcome.fallback_success
        assert outcome.converged
        assert outcome.final_iterations == outcome.iterations_fallback > 2
        assert outcome.fallback_seconds > 0
        assert np.isfinite(outcome.final_objective)


def test_engine_evaluate_records_fallback_honestly(trained_trainer9, dataset9):
    """Warm-attempt numbers stay honest when the fallback runs (the old conflation bug)."""
    engine = WarmStartEngine.from_trainer(
        trained_trainer9,
        opf_options=OPFOptions(mips=MIPSOptions(max_it=1)),
        fallback="cold_restart",
    )
    evaluation = engine.evaluate(dataset9, max_problems=3)
    assert evaluation.fallback_rate == 1.0
    assert evaluation.success_rate == 0.0
    for record in evaluation.records:
        # The warm attempt burned exactly the starved budget — not the fallback's.
        assert record.iterations_warm == 1
        assert record.iterations_fallback == 1
        assert not record.success
        assert record.used_fallback
        assert record.restart_seconds > 0
        assert record.warm_solve_seconds > 0
        assert record.online_seconds >= record.warm_solve_seconds + record.restart_seconds


def test_sweep_relaxed_fallback_counts_every_recovery_solve(case9_fixture):
    """A relaxed retry that degrades to a cold restart charges both solves."""
    scenarios = generate_scenarios(case9_fixture, 1, seed=5)
    # Both the relaxed retry and the cold restart are iteration-starved, so the
    # recovery runs exactly two 2-iteration solves.
    starving = OPFOptions(mips=MIPSOptions(max_it=2))
    sweep = run_scenario_sweep(
        case9_fixture,
        scenarios,
        options=starving,
        fallback=RelaxedWarmRetryFallback(tolerance_scale=2.0),
    )
    (outcome,) = sweep.outcomes
    assert not outcome.success and outcome.used_fallback and not outcome.fallback_success
    assert outcome.iterations == 2
    assert outcome.iterations_fallback == 4  # relaxed retry (2) + cold restart (2)


# ------------------------------------------------ serving-path accounting fixes
def test_serve_empty_request_short_circuits(engine9, case9_fixture):
    """Empty requests return an empty generation-stamped sweep, no solves."""
    sweep = engine9.serve(ScenarioSet(case9_fixture.name, []))
    assert sweep.n_scenarios == 0
    assert sweep.outcomes == []
    assert sweep.model_generation == engine9.generation
    loads = engine9.serve_loads(
        np.zeros((0, case9_fixture.n_bus)), np.zeros((0, case9_fixture.n_bus))
    )
    assert loads.n_scenarios == 0
    assert loads.model_generation == engine9.generation


def test_empty_scenario_set_feature_matrix_is_shape_correct(case9_fixture):
    """`feature_matrix` on an empty set must not crash in ``np.vstack``.

    Any caller that batches, slices or coalesces requests can produce an
    empty set; carrying ``n_bus`` keeps the feature width shape-correct so
    batched inference (and anything downstream) handles zero rows uniformly.
    """
    n_bus = case9_fixture.n_bus
    empty = ScenarioSet(case9_fixture.name, [], n_bus=n_bus)
    assert empty.feature_matrix(case9_fixture.base_mva).shape == (0, 2 * n_bus)
    # Without n_bus there is nothing to infer from — degrade to width 0.
    assert ScenarioSet(case9_fixture.name, []).feature_matrix(100.0).shape == (0, 0)
    # Non-empty sets infer n_bus from their first scenario.
    populated = generate_scenarios(case9_fixture, 2, seed=0)
    assert populated.n_bus == n_bus
    assert populated.feature_matrix(case9_fixture.base_mva).shape == (2, 2 * n_bus)


def test_serve_empty_request_skips_health_machinery(trained_trainer9, case9_fixture):
    """An empty request must not feed the breaker (it served zero scenarios)."""
    breaker = CircuitBreaker(window=4, threshold=0.5, min_observations=2, cooldown=8)
    engine = WarmStartEngine.from_trainer(trained_trainer9, breaker=breaker)
    try:
        sweep = engine.serve(ScenarioSet(case9_fixture.name, []))
        assert sweep.n_scenarios == 0
        assert breaker.health.n_observations == 0
        assert breaker.trips == 0 and breaker.state == CircuitBreaker.CLOSED
    finally:
        engine.close()


def test_evaluate_drives_breaker_like_serve(trained_trainer9, dataset9):
    """Evaluate-path fallbacks drive the breaker exactly like serve-path ones.

    ``evaluate`` used to snapshot ``breaker.trips`` once before its record
    loop and never feed the breaker at all, so evaluation traffic was
    invisible to the health machinery and every record carried the same stale
    trip count.
    """
    n = 5

    def starved(breaker):
        # max_it=1 guarantees every warm attempt fails, so each scenario is
        # one fallback observation — enough to trip a 2-observation breaker.
        return WarmStartEngine.from_trainer(
            trained_trainer9,
            opf_options=OPFOptions(mips=MIPSOptions(max_it=1)),
            fallback="cold_restart",
            breaker=breaker,
        )

    serve_breaker = CircuitBreaker(window=4, threshold=0.5, min_observations=2, cooldown=100)
    eval_breaker = CircuitBreaker(window=4, threshold=0.5, min_observations=2, cooldown=100)
    serve_engine = starved(serve_breaker)
    eval_engine = starved(eval_breaker)
    try:
        serve_engine.serve_loads(dataset9.Pd_mw[:n], dataset9.Qd_mw[:n])
        evaluation = eval_engine.evaluate(dataset9, max_problems=n)
    finally:
        serve_engine.close()
        eval_engine.close()
    assert eval_breaker.trips == serve_breaker.trips > 0
    assert eval_breaker.state == serve_breaker.state
    # Each record snapshots the trip count *after* its own outcome landed:
    # record 0 precedes min_observations, record 1 trips the breaker, the
    # open breaker then just counts cooldown.
    assert [record.fallback_trips for record in evaluation.records] == [0, 1, 1, 1, 1]
    assert evaluation.records[-1].fallback_trips == eval_breaker.trips


def test_serving_inference_is_batch_width_invariant(engine9, dataset9):
    """Row predictions are bitwise identical whatever batch width served them.

    The async batcher coalesces requests into arbitrary flush widths, so the
    serving forward pass pins every matmul to one canonical gemm shape —
    a row's bits must not depend on how the batcher cut its flush.
    """
    inputs = dataset9.inputs[:5]
    full = engine9.predict_physical(inputs)
    per_row = [engine9.predict_physical(inputs[i : i + 1]) for i in range(5)]
    head = engine9.predict_physical(inputs[:2])
    tail = engine9.predict_physical(inputs[2:])
    for key, value in full.items():
        np.testing.assert_array_equal(
            np.vstack([chunk[key] for chunk in per_row]), value
        )
        np.testing.assert_array_equal(np.vstack([head[key], tail[key]]), value)


# ------------------------------------------------------------------------ fleet
def test_solver_fleet_persists_and_closes(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 3, seed=7)
    fleet = SolverFleet(case9_fixture)
    first = fleet.solve(scenarios)
    second = fleet.solve(scenarios)
    assert first.n_scenarios == second.n_scenarios == 3
    assert [o.iterations for o in first.outcomes] == [o.iterations for o in second.outcomes]
    fleet.close()
    fleet.close()  # idempotent
    with pytest.raises(RuntimeError):
        fleet.solve(scenarios)
    with pytest.raises(ValueError):
        SolverFleet(case9_fixture, n_workers=0)


def test_fleet_spawn_workers_roundtrip(case9_fixture):
    """Two real spawn workers: policies, warm starts and solutions all pickle."""
    scenarios = generate_scenarios(case9_fixture, 4, seed=9)
    sweep = run_scenario_sweep(
        case9_fixture,
        scenarios,
        n_workers=2,
        fallback=ColdRestartFallback(),
        collect_solutions=True,
    )
    assert sweep.n_scenarios == 4
    assert sweep.success_rate == 1.0
    # Outcomes carry the identity of the pool process that pulled them (> 0:
    # never the parent), and there are only two such processes.
    workers = {o.worker for o in sweep.outcomes}
    assert 1 <= len(workers) <= 2 and min(workers) > 0
    assert all(o.solution is not None for o in sweep.outcomes)
    # Identical to the in-process fleet (same solves, different processes).
    inline = run_scenario_sweep(case9_fixture, scenarios, n_workers=1)
    assert [o.iterations for o in sweep.outcomes] == [o.iterations for o in inline.outcomes]


def test_sweep_warm_start_count_validation(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 2, seed=0)
    with pytest.raises(ValueError):
        run_scenario_sweep(case9_fixture, scenarios, warm_starts=[None])


# ---------------------------------------------------------- pooled ground truth
def test_pooled_dataset_generation_matches_direct_solves(case9_fixture, opf_model9):
    """The pooled lockstep path reproduces per-sample direct solves.

    Lockstep evaluates callbacks batch-vectorised, so it matches per-sample
    solves to solver-tolerance precision — identical iteration counts,
    objectives to 1e-12 — rather than bit-for-bit.
    """
    from repro.grid.perturb import sample_loads

    batch_set = generate_dataset(case9_fixture, 5, seed=42, model=opf_model9)
    samples = sample_loads(case9_fixture, 5, variation=0.1, seed=42)
    assert batch_set.n_samples == 5
    for i, sample in enumerate(samples):
        result = solve_opf(
            case9_fixture, Pd_mw=sample.Pd, Qd_mvar=sample.Qd, model=opf_model9
        )
        assert result.success
        parts = opf_model9.idx.split(result.x)
        # Same trajectories, same supervision signal, solver-precision equality.
        assert batch_set.iterations[i] == result.iterations
        assert batch_set.objectives[i] == pytest.approx(result.objective, rel=1e-12)
        np.testing.assert_allclose(batch_set.targets["Vm"][i], parts["Vm"], atol=1e-9)
        np.testing.assert_allclose(batch_set.targets["lam"][i], result.lam, atol=1e-7)
        np.testing.assert_allclose(batch_set.targets["mu"][i], result.mu, atol=1e-7)


def test_generate_dataset_collects_solutions_only_internally(case9_fixture, opf_model9):
    """Solution payloads power dataset assembly but stay out of plain sweeps."""
    scenarios = generate_scenarios(case9_fixture, 2, seed=1)
    plain = run_scenario_sweep(case9_fixture, scenarios)
    assert all(o.solution is None for o in plain.outcomes)
    collecting = run_scenario_sweep(case9_fixture, scenarios, collect_solutions=True)
    for outcome in collecting.outcomes:
        assert outcome.solution is not None
        assert outcome.solution.x.shape == (opf_model9.idx.nx,)
