"""Tests of the batched warm-start serving engine, fleet, cold restart and hot-swap."""

import threading

import numpy as np
import pytest

from repro.engine import NearestSolutions, WarmStartEngine
from repro.data import generate_dataset
from repro.opf import WarmStart, certify_opf, solve_opf, solve_opf_batch
from repro.mips.options import MIPSOptions
from repro.parallel import (
    Scenario,
    ScenarioSet,
    SolverFleet,
    generate_contingency_set,
    generate_scenarios,
)


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


def test_engine_evaluate_matches_sequential_loop(engine9, case9_fixture, dataset9, opf_model9):
    """The engine's batched evaluation reproduces the per-row sequential loop
    from the served start."""
    subset = dataset9.subset(np.arange(5))
    evaluation = engine9.evaluate(subset)
    assert evaluation.n_problems == 5
    for i, record in enumerate(evaluation.records):
        (warm,) = engine9.warm_starts_for(subset.inputs[i])
        result = solve_opf(
            case9_fixture,
            warm_start=warm,
            Pd_mw=subset.Pd_mw[i],
            Qd_mvar=subset.Qd_mw[i],
            model=opf_model9,
        )
        assert record.outcome.success == result.success
        assert record.outcome.iterations == result.iterations
        assert record.outcome.objective == pytest.approx(result.objective, rel=1e-9)


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
    assert list(engine9._fleets) == [1]
    engine9.close()
    assert not engine9._fleets


def test_serve_keeps_one_fleet_per_width(trained_trainer9, case9_fixture):
    """Requests at one worker count reuse the same spawned workers."""
    import multiprocessing

    def workers():
        return set(multiprocessing.active_children()) - before

    before = set(multiprocessing.active_children())
    scenarios = generate_scenarios(case9_fixture, 2, seed=7)
    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        assert engine.serve(scenarios, n_workers=2).success_rate == 1.0
        spawned = workers()
        Pd = np.vstack([s.Pd for s in scenarios])
        Qd = np.vstack([s.Qd for s in scenarios])
        assert engine.serve_loads(Pd, Qd, n_workers=2).success_rate == 1.0
        assert list(engine._fleets) == [2]
        assert len(spawned) == 2 and workers() == spawned
    assert not workers()


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


# -------------------------------------------------------------- cold restart
def test_sweep_fallback_recovers_failed_warm_solve(case9_fixture):
    """A poisoned warm start fails; the worker re-solves it cold, and the
    recovery is bitwise the row's one-row cold solve."""
    scenarios = generate_scenarios(case9_fixture, 3, variation=0.05, seed=5)
    good = solve_opf(case9_fixture).warm_start()
    poisoned = WarmStart(x=good.x * 200.0, lam=good.lam, mu=good.mu, z=good.z)
    with SolverFleet(case9_fixture) as fleet:
        sweep = fleet.solve(scenarios, [good, poisoned, None], solutions=True)
    healthy, recovered, cold = sweep.outcomes
    assert not recovered.success and not recovered.timed_out
    assert recovered.used_fallback and recovered.fallback_success and recovered.converged
    assert recovered.fallback_seconds > 0
    scenario = scenarios[1]
    (reference,) = solve_opf_batch(case9_fixture, [scenario.Pd], [scenario.Qd])
    assert recovered.iterations_fallback == recovered.final_iterations == reference.iterations
    assert recovered.final_objective.hex() == reference.objective.hex()
    for name in ("x", "lam", "mu", "z"):
        np.testing.assert_array_equal(getattr(recovered.solution, name), getattr(reference, name))
    assert certify_opf(case9_fixture, recovered.solution, scenario.Pd, scenario.Qd).holds()
    for outcome in (healthy, cold):
        assert outcome.success and not outcome.used_fallback
        assert outcome.iterations_fallback == 0 and outcome.fallback_seconds == 0.0


def test_engine_evaluate_records_fallback_honestly(trained_trainer9, dataset9):
    """Warm-attempt numbers stay honest when the fallback runs (the old conflation bug)."""
    engine = WarmStartEngine(
        trained_trainer9.opf_model.case,
        NearestSolutions.from_dataset(trained_trainer9.dataset),
        opf_options=MIPSOptions(max_it=1),
        opf_model=trained_trainer9.opf_model,
    )
    # Rows outside the table: a training row would start at its own solution.
    _train, validation = dataset9.split(0.8, seed=0)
    evaluation = engine.evaluate(validation, max_problems=3)
    assert evaluation.fallback_rate == 1.0
    assert evaluation.success_rate == 0.0
    for record in evaluation.records:
        outcome = record.outcome
        # The warm attempt burned exactly the starved budget — not the fallback's.
        assert outcome.iterations == 1
        assert outcome.iterations_fallback == 1
        assert not outcome.success
        assert outcome.used_fallback
        assert outcome.fallback_seconds > 0
        assert outcome.solve_seconds > 0
        assert record.online_seconds >= outcome.solve_seconds + outcome.fallback_seconds


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


def test_serving_inference_is_batch_width_invariant(engine9, dataset9):
    """Row starts are bitwise identical whatever batch width served them.

    The async batcher coalesces requests into arbitrary flush widths, so a
    row's bits must not depend on how the batcher cut its flush.
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


# ------------------------------------------------------------- outage rows
def test_engine_serves_outage_rows_their_retrieval_start(engine9, case9_fixture):
    """A row that carries an outage set is served its retrieval start like
    an intact row: the iterations and objective bits of every row of a mixed
    request are those of ``fleet.solve(rows, warm_starts_for(rows))``."""
    outage_rows = generate_contingency_set(case9_fixture, 4, k=1, variation=0.05, seed=31)
    assert all(s.outage_branches for s in outage_rows)
    intact_rows = generate_scenarios(case9_fixture, 3, variation=0.05, seed=32)
    mixed = ScenarioSet(
        case9_fixture.name,
        [Scenario(i, s.Pd, s.Qd, s.outage_branches) for i, s in enumerate([*outage_rows, *intact_rows])],
    )
    served = {o.scenario_id: o for o in engine9.serve(mixed).outcomes}
    starts = engine9.warm_starts_for(mixed.feature_matrix(case9_fixture.base_mva))
    with SolverFleet(case9_fixture) as fleet:
        expected = fleet.solve(mixed, starts).outcomes
        cold = fleet.solve(outage_rows, None).outcomes
    assert any(
        got.iterations != c.iterations for got, c in zip(expected, cold)
    ), "the outage rows' starts must change their solves"
    for i, want in enumerate(expected):
        got = served[i]
        assert (got.success, got.used_fallback) == (want.success, want.used_fallback)
        assert (got.iterations, got.final_iterations) == (want.iterations, want.final_iterations)
        assert got.final_objective.hex() == want.final_objective.hex()


# --------------------------------------------------------------------- hot swap
@pytest.fixture(scope="module")
def halves9(dataset9):
    """Two retrieval tables over disjoint halves of the case9 dataset."""
    order = np.arange(dataset9.n_samples)
    return (
        NearestSolutions.from_dataset(dataset9.subset(order[::2])),
        NearestSolutions.from_dataset(dataset9.subset(order[1::2])),
    )


def _sweep_signature(sweep):
    return {
        o.scenario_id: (o.iterations, o.objective, o.used_fallback)
        for o in sweep.outcomes
    }


def _pure_outcomes(case, starts, scenarios):
    """Reference outcomes of a standalone engine around one table."""
    with WarmStartEngine(case, starts) as engine:
        return _sweep_signature(engine.serve(scenarios))


def test_hot_swap_publishes_new_generation(halves9, case9_fixture):
    old, new = halves9
    # Loads that are no training row of either half, so neither table
    # answers with a stored solution.
    probe = generate_scenarios(case9_fixture, 2, variation=0.05, seed=20).feature_matrix(
        case9_fixture.base_mva
    )
    engine = WarmStartEngine(case9_fixture, old)
    try:
        assert engine.generation == 0
        before = engine.predict_physical(probe)
        gen = engine.hot_swap(new)
        assert gen == 1 and engine.generation == 1
        assert engine.starts is new
        after = engine.predict_physical(probe)
        reference = new.predict_physical(probe)
        for task in reference:
            np.testing.assert_array_equal(after[task], reference[task])
        assert all(
            not np.array_equal(before[task], after[task]) for task in reference
        ), "swap must actually change the served table"
    finally:
        engine.close()


def test_serve_stamps_generation_and_swap_is_pure(halves9, case9_fixture):
    """Sequential swap: sweeps before/after match the pure reference engines."""
    old, new = halves9
    scenarios = generate_scenarios(case9_fixture, 4, variation=0.05, seed=21)
    pure_old = _pure_outcomes(case9_fixture, old, scenarios)
    pure_new = _pure_outcomes(case9_fixture, new, scenarios)
    assert pure_old != pure_new
    engine = WarmStartEngine(case9_fixture, old)
    try:
        old_sweep = engine.serve(scenarios)
        assert old_sweep.model_generation == 0
        assert _sweep_signature(old_sweep) == pure_old
        engine.hot_swap(new)
        new_sweep = engine.serve(scenarios)
        assert new_sweep.model_generation == 1
        assert _sweep_signature(new_sweep) == pure_new
    finally:
        engine.close()


def test_concurrent_swap_yields_pure_generations_and_drops_nothing(halves9, case9_fixture):
    """Chaos: hot-swap races a serving loop; every request is pure, none lost."""
    old, new = halves9
    scenarios = generate_scenarios(case9_fixture, 3, variation=0.05, seed=22)
    pure = {
        0: _pure_outcomes(case9_fixture, old, scenarios),
        1: _pure_outcomes(case9_fixture, new, scenarios),
    }
    assert pure[0] != pure[1]
    engine = WarmStartEngine(case9_fixture, old)
    sweeps, errors = [], []
    n_requests = 12
    swap_gate = threading.Event()

    def hammer():
        try:
            for i in range(n_requests):
                sweeps.append(engine.serve(scenarios))
                if i == 2:
                    swap_gate.set()  # let the swap race the remaining requests
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    try:
        server = threading.Thread(target=hammer)
        server.start()
        assert swap_gate.wait(timeout=60)
        engine.hot_swap(new)
        server.join(timeout=120)
        assert not server.is_alive() and not errors
        assert len(sweeps) == n_requests, "no request may be dropped across the swap"
        generations = [s.model_generation for s in sweeps]
        assert set(generations) <= {0, 1}
        assert generations == sorted(generations), "generation is monotonic per request"
        assert generations[-1] == 1, "requests after the swap serve the new model"
        for sweep in sweeps:
            assert len(sweep.outcomes) == len(scenarios)
            assert _sweep_signature(sweep) == pure[sweep.model_generation], (
                "request outcomes must be bitwise pure-old or pure-new, never hybrid"
            )
    finally:
        engine.close()


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
    """Two real spawn workers: options, warm starts and solutions all pickle."""
    scenarios = generate_scenarios(case9_fixture, 4, seed=9)
    with SolverFleet(case9_fixture, n_workers=2) as fleet:
        sweep = fleet.solve(scenarios, solutions=True)
    assert sweep.n_scenarios == 4
    assert sweep.success_rate == 1.0
    # Outcomes carry the identity of the pool process that pulled them (> 0:
    # never the parent), and there are only two such processes.
    workers = {o.worker for o in sweep.outcomes}
    assert 1 <= len(workers) <= 2 and min(workers) > 0
    assert all(o.solution is not None for o in sweep.outcomes)
    # Identical to the in-process fleet (same solves, different processes).
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        inline = fleet.solve(scenarios)
    assert [o.iterations for o in sweep.outcomes] == [o.iterations for o in inline.outcomes]


def test_sweep_warm_start_count_validation(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 2, seed=0)
    with SolverFleet(case9_fixture) as fleet:
        with pytest.raises(ValueError):
            fleet.solve(scenarios, [None])


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
    with SolverFleet(case9_fixture) as fleet:
        plain = fleet.solve(scenarios)
        collecting = fleet.solve(scenarios, solutions=True)
    assert all(o.solution is None for o in plain.outcomes)
    for outcome in collecting.outcomes:
        assert outcome.solution is not None
        assert outcome.solution.x.shape == (opf_model9.idx.nx,)
