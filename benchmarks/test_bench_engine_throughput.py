"""Serving-engine throughput — batched engine vs the sequential seed online loop.

The seed's ``online_evaluate`` served scenarios one at a time: a fresh
single-row ``predict`` per scenario followed by an in-process warm-started
solve.  The :class:`~repro.engine.engine.WarmStartEngine` replaces that with
one batched forward pass plus dispatch over a persistent solver fleet.  This
benchmark times both paths on the largest bundled system (the 118-bus
Table-II equivalent) and records the achieved speedup; it also checks that
the engine's evaluation is *numerically faithful* to the sequential path.

The ≥2x throughput target is only enforced under ``REPRO_BENCH_STRICT=1``: it
needs a multi-core machine (the 2x comes from saturating solver workers; on a
single core only the batched-inference amortisation remains).  The measured speedup is always recorded in
``extra_info`` so perf trajectories track it across PRs.
"""

import os
import time

import numpy as np
import pytest

from repro.core import SmartPGSim, SmartPGSimConfig
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mtl import fast_config
from repro.opf import solve_opf
from repro.parallel import Scenario, ScenarioSet, SolverFleet, generate_scenarios

STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"
#: Workers used for the engine path (bounded so laptops are not oversubscribed).
N_WORKERS = max(1, min(4, os.cpu_count() or 1))


@pytest.fixture(scope="module")
def framework118():
    """A small Smart-PGSim pipeline on the 118-bus synthetic system."""
    config = SmartPGSimConfig(
        n_samples=10,
        load_variation=0.05,
        mtl=fast_config(epochs=10),
        seed=0,
    )
    framework = SmartPGSim(get_case("case118s"), config)
    framework.offline()
    return framework


def _sequential_seed_path(framework, scenarios):
    """Replica of the seed online loop: per-row predict + in-process solve."""
    trainer = framework.artifacts.trainer
    case = framework.case
    outcomes = []
    for scenario in scenarios:
        warm = trainer.warm_start_for(scenario.feature_vector(case.base_mva))
        result = solve_opf(
            case,
            warm_start=warm,
            Pd_mw=scenario.Pd,
            Qd_mvar=scenario.Qd,
            options=framework.config.opf,
            model=framework.opf_model,
        )
        if not result.success:  # the seed's cold-restart fallback
            result = solve_opf(
                case,
                Pd_mw=scenario.Pd,
                Qd_mvar=scenario.Qd,
                options=framework.config.opf,
                model=framework.opf_model,
            )
        outcomes.append(result)
    return outcomes


def test_bench_engine_throughput_vs_sequential(benchmark, framework118, perf_recorder):
    case = framework118.case
    engine = framework118.engine
    scenarios = generate_scenarios(case, 10, variation=0.05, seed=11)

    # Sequential seed path (timed manually; one pass is ~1 s of solves).
    t0 = time.perf_counter()
    sequential = _sequential_seed_path(framework118, scenarios)
    sequential_wall = time.perf_counter() - t0

    # Warm the fleet outside the timed section — a serving engine pays process
    # start-up once, not per request.
    engine.serve(generate_scenarios(case, 1, variation=0.05, seed=1), n_workers=N_WORKERS)
    sweep = benchmark.pedantic(
        lambda: engine.serve(scenarios, n_workers=N_WORKERS), rounds=1, iterations=1
    )
    engine.close()

    speedup = sequential_wall / sweep.wall_seconds
    benchmark.extra_info["sequential_wall_seconds"] = sequential_wall
    benchmark.extra_info["engine_wall_seconds"] = sweep.wall_seconds
    benchmark.extra_info["engine_throughput_scen_per_s"] = sweep.throughput
    benchmark.extra_info["speedup_vs_sequential"] = speedup
    benchmark.extra_info["n_workers"] = N_WORKERS
    perf_recorder(
        "engine_throughput_vs_sequential",
        case="case118s",
        n_scenarios=len(scenarios),
        n_workers=N_WORKERS,
        sequential_wall_seconds=sequential_wall,
        engine_wall_seconds=sweep.wall_seconds,
        speedup_vs_sequential=speedup,
    )

    print(
        f"\nEngine throughput (case118s, {N_WORKERS} worker(s)): "
        f"sequential {len(scenarios) / sequential_wall:.1f} scen/s, "
        f"engine {sweep.throughput:.1f} scen/s, speedup {speedup:.2f}x"
    )

    # Numerical faithfulness holds on any machine.
    assert sweep.n_scenarios == len(scenarios)
    for outcome, result in zip(sweep.outcomes, sequential):
        assert outcome.converged == result.success
    assert sweep.throughput > 0
    if STRICT:
        assert speedup >= 2.0, f"engine speedup {speedup:.2f}x below the 2x target"


def test_bench_batched_backend_vs_scenario_loop(benchmark, framework118, perf_recorder):
    """Lockstep batched backend vs an explicit scalar ``solve_opf`` loop, one process.

    This isolates the batching claim from multi-core effects: identical warm
    starts, one persistent model on either side, only the solver differs (the
    paper-style "vs sequential" figure).  The ≥2x gate is enforced under ``REPRO_BENCH_STRICT=1`` (wall
    -clock ratios flake on loaded shared runners); the measured speedup and
    the batch solver's phase breakdown are always recorded.
    """
    from repro.opf import OPFModel

    case = framework118.case
    engine = framework118.engine
    options = framework118.config.opf
    scenarios = generate_scenarios(case, 16, variation=0.05, seed=21)
    warm_starts = engine.warm_starts_for(scenarios.feature_matrix(case.base_mva))

    model = OPFModel(case, flow_limits=options.flow_limits)
    t0 = time.perf_counter()
    scalar = [
        solve_opf(case, warm_start=warm, Pd_mw=s.Pd, Qd_mvar=s.Qd, options=options, model=model)
        for s, warm in zip(scenarios, warm_starts)
    ]
    scenario_wall = time.perf_counter() - t0

    with SolverFleet(case, options=options) as fleet:
        # Prime the batched evaluation model (pattern plans are built once per
        # case; a serving engine amortises this over its lifetime).
        fleet.solve(generate_scenarios(case, 2, variation=0.05, seed=1))
        sweep_batch = benchmark.pedantic(
            lambda: fleet.solve(scenarios, warm_starts), rounds=1, iterations=1
        )
        batch_wall = sweep_batch.wall_seconds

    speedup = scenario_wall / batch_wall
    phases = {}
    for outcome in sweep_batch.outcomes:
        for key, value in outcome.phase_seconds.items():
            phases[key] = phases.get(key, 0.0) + value
    benchmark.extra_info["scenario_wall_seconds"] = scenario_wall
    benchmark.extra_info["batch_wall_seconds"] = batch_wall
    benchmark.extra_info["batched_speedup"] = speedup
    benchmark.extra_info["batch_phase_seconds"] = phases
    perf_recorder(
        "batched_backend_vs_scenario_loop",
        case="case118s",
        n_scenarios=len(scenarios),
        scenario_wall_seconds=scenario_wall,
        batch_wall_seconds=batch_wall,
        batched_speedup=speedup,
        batch_phase_seconds=phases,
    )
    print(
        f"\nBatched backend (case118s, 1 process): per-scenario loop "
        f"{len(scenarios) / scenario_wall:.1f} scen/s, lockstep batch "
        f"{len(scenarios) / batch_wall:.1f} scen/s, speedup {speedup:.2f}x"
    )

    # Per-scenario parity against the sequential path holds on any machine.
    # Objectives agree to the solver's own convergence scale: two converged
    # trajectories may stop at slightly different points inside the 1e-6
    # tolerance band once float associativity differs.
    assert sweep_batch.n_scenarios == len(scalar) == len(scenarios)
    for got, ref in zip(sweep_batch.outcomes, scalar):
        assert got.converged == ref.success
        if ref.success:
            assert got.iterations == ref.iterations
            assert abs(got.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))
    assert speedup > 0
    if STRICT:
        assert speedup >= 2.0, f"batched speedup {speedup:.2f}x below the 2x target"


def test_bench_grouped_contingency_screening(benchmark, framework118, perf_recorder):
    """Cross-sweep contingency batching vs fragmented per-sweep screening.

    Four N-1 screening sweeps share an outage-branch set but hold only one
    scenario per branch each, so solving sweep by sweep degenerates to
    width-1 lockstep groups per branch — the fragmentation the ROADMAP
    flags.  ``solve_many`` merges the sweeps: each branch collects its four
    scenarios into one lockstep group (served by the worker's memoized
    per-branch batched model) and the load-only scenarios march together,
    recovering the batch win.  Measurable on a single core because batched
    evaluation amortises with width on case118s; the grouped results stay
    bitwise-identical to the per-sweep path (pinned by
    ``tests/test_contingency_grouping.py``).
    """
    case = framework118.case
    f, t = case.branch_bus_indices()
    live = case.branch.status > 0
    degree = np.bincount(f[live], minlength=case.n_bus) + np.bincount(
        t[live], minlength=case.n_bus
    )
    branches = [int(b) for b in np.flatnonzero(live & (degree[f] > 1) & (degree[t] > 1))[:4]]
    n_sweeps, per_sweep = 4, 6
    samples = sample_loads(case, n_sweeps * per_sweep, variation=0.05, seed=41)
    sweeps = []
    k = 0
    for _ in range(n_sweeps):
        members = []
        for i in range(per_sweep):
            outage = (branches[i],) if i < len(branches) else ()
            members.append(Scenario(i, samples[k].Pd, samples[k].Qd, outage_branches=outage))
            k += 1
        sweeps.append(ScenarioSet(case.name, members))

    options = framework118.config.opf
    with SolverFleet(case, options=options) as fleet:
        fleet.solve(sweeps[0])  # prime models/patterns outside the timing
        t0 = time.perf_counter()
        for sweep in sweeps:
            fleet.solve(sweep)
        fragmented_wall = time.perf_counter() - t0
        grouped = benchmark.pedantic(
            lambda: fleet.solve_many(sweeps), rounds=1, iterations=1
        )
        grouped_wall = grouped[0].wall_seconds

    n_total = n_sweeps * per_sweep
    speedup = fragmented_wall / grouped_wall
    benchmark.extra_info["fragmented_wall_seconds"] = fragmented_wall
    benchmark.extra_info["grouped_wall_seconds"] = grouped_wall
    benchmark.extra_info["grouped_speedup"] = speedup
    perf_recorder(
        "grouped_contingency_screening",
        case="case118s",
        n_sweeps=n_sweeps,
        n_scenarios=n_total,
        fragmented_wall_seconds=fragmented_wall,
        grouped_wall_seconds=grouped_wall,
        grouped_speedup=speedup,
    )
    print(
        f"\nGrouped contingency screening (case118s, {n_sweeps}x{per_sweep} scenarios, "
        f"1 process): per-sweep {n_total / fragmented_wall:.1f} scen/s, grouped "
        f"{n_total / grouped_wall:.1f} scen/s, speedup {speedup:.2f}x"
    )

    assert sum(s.n_scenarios for s in grouped) == n_total
    assert all(s.success_rate == 1.0 for s in grouped)
    if STRICT:
        assert speedup >= 1.2, (
            f"grouped-contingency speedup {speedup:.2f}x below the 1.2x target"
        )


def test_bench_engine_evaluation_matches_sequential(framework9):
    """Per-record parity: engine evaluation == sequential seed loop (fixed seed)."""
    dataset = framework9.artifacts.validation_set
    trainer = framework9.artifacts.trainer
    case = framework9.case
    evaluation = framework9.engine.evaluate(dataset)
    assert evaluation.n_problems == dataset.n_samples
    for i, record in enumerate(evaluation.records):
        warm = trainer.warm_start_for(dataset.inputs[i])
        result = solve_opf(
            case,
            warm_start=warm,
            Pd_mw=dataset.Pd_mw[i],
            Qd_mvar=dataset.Qd_mw[i],
            options=framework9.config.opf,
            model=framework9.opf_model,
        )
        assert record.success == result.success
        if result.success:
            assert record.iterations_warm == result.iterations
        else:
            cold = solve_opf(
                case,
                Pd_mw=dataset.Pd_mw[i],
                Qd_mvar=dataset.Qd_mw[i],
                options=framework9.config.opf,
                model=framework9.opf_model,
            )
            assert record.used_fallback
            assert record.iterations_fallback == cold.iterations
