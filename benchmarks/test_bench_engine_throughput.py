"""Serving-engine throughput — batched engine vs the sequential seed online loop.

The seed's ``online_evaluate`` served scenarios one at a time: a fresh
single-row ``predict`` per scenario followed by an in-process warm-started
solve.  The :class:`~repro.engine.engine.WarmStartEngine` replaces that with
one batched forward pass plus dispatch over a persistent solver fleet.  This
benchmark times both paths on the largest bundled system (the 118-bus
Table-II equivalent) and records the achieved speedup; it also checks that
the engine's evaluation is *numerically faithful* to the sequential path.

Like the KKT fast-path benchmark, the ≥2x throughput target is only enforced
under ``REPRO_BENCH_STRICT=1``: it needs a multi-core machine (the 2x comes
from saturating solver workers; on a single core only the batched-inference
amortisation remains).  The measured speedup is always recorded in
``extra_info`` so perf trajectories track it across PRs.
"""

import json
import os
import time
from pathlib import Path

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
#: Fallback when no recorded bench JSON is available: the batched-backend
#: scenario throughput recorded by the PR 3 benchmark session
#: (BENCH_pr3.json, ``batched_backend_vs_scenario_loop``).
BASELINE_FALLBACK_SCEN_PER_S = 70.0


def recorded_blockdiag_baseline() -> float:
    """Blockdiag scen/s recorded by the previous benchmark session.

    The re-baselined gate measures the new refactorisation backends against
    the number the *previous* PR actually recorded on this repo
    (``BENCH_pr5.json``'s ``blockdiag_kkt_backend`` entry, 59.648 scen/s at
    the time of writing) rather than a hard-coded constant, so the target
    tracks the repo's own perf trajectory.  Falls back to the PR 3 constant
    when the recorded file is absent or unreadable.
    """
    path = Path(__file__).resolve().parents[1] / "BENCH_pr5.json"
    try:
        payload = json.loads(path.read_text())
        return float(
            payload["benchmarks"]["blockdiag_kkt_backend"]["blockdiag_scen_per_s"]
        )
    except (OSError, KeyError, TypeError, ValueError):
        return BASELINE_FALLBACK_SCEN_PER_S


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


def test_bench_blockdiag_kkt_backend(benchmark, framework118, perf_recorder):
    """KKT refactorisation backends vs the per-slot batched loop.

    All runs use the lockstep batched solver on the same warm-started
    case118s workload; only the KKT backend routing differs —

    * ``factorized``: one assemble/factor/backsolve per active scenario per
      iteration (the per-slot loop),
    * ``blockdiag``: one batched plan-based assembly, one block-diagonal
      SuperLU factorisation and one stacked backsolve per iteration,
    * ``ldl``: the same-pattern LDLᵀ refactorisation backend — symbolic
      analysis cached once, level-scheduled vectorised numeric phase over the
      whole batch plane, guarded iterative refinement.

    The ≥1.5x target for the new backends is measured against the blockdiag
    throughput the *previous* bench session recorded (``BENCH_pr5.json``;
    hard-coded 70 scen/s fallback) and is only enforced under
    ``REPRO_BENCH_STRICT=1``.  The measured throughputs and the per-backend
    KKT telemetry counters (symbolic reuses / numeric refactorisations /
    block factorisations — the Fig. 5 factorisation-attribution inputs) are
    always recorded into ``BENCH_pr9.json`` so the trajectory is tracked
    either way.  The workload is the exact one the PR 3/PR 5 sessions
    measured (16 scenarios, ±5 %, seed 21) so ratios are apples-to-apples.
    """
    from dataclasses import replace

    from repro.parallel import SolverFleet

    case = framework118.case
    engine = framework118.engine
    scenarios = generate_scenarios(case, 16, variation=0.05, seed=21)
    warm_starts = engine.warm_starts_for(scenarios.feature_matrix(case.base_mva))
    baseline = recorded_blockdiag_baseline()

    def options_for(backend):
        opts = framework118.config.opf
        return replace(opts, mips=replace(opts.mips, kkt_solver=backend))

    def run(backend, bench=False, repeats=8):
        """Best-of-``repeats`` sweep: wall-clock ratios on shared runners are
        dominated by scheduler noise, and the *minimum* wall is the cleanest
        estimate of what the backend actually costs.  On a contended 1-vCPU
        VM the per-sweep wall spreads ~±15 % around its floor; eight samples
        bring the min within a couple percent of it (three do not)."""
        with SolverFleet(case, options=options_for(backend)) as fleet:
            fleet.solve(generate_scenarios(case, 2, variation=0.05, seed=1))
            if bench:
                sweep = benchmark.pedantic(
                    lambda: fleet.solve(scenarios, warm_starts), rounds=1, iterations=1
                )
            else:
                sweep = fleet.solve(scenarios, warm_starts)
            best_wall = sweep.wall_seconds
            for _ in range(repeats - 1):
                again = fleet.solve(scenarios, warm_starts)
                best_wall = min(best_wall, again.wall_seconds)
        return sweep, best_wall

    sweep_slot, slot_wall = run("factorized")
    sweep_block, block_wall = run("blockdiag")
    sweep_ldl, ldl_wall = run("ldl", bench=True)

    walls = {
        "per_slot": slot_wall,
        "blockdiag": block_wall,
        "ldl": ldl_wall,
    }
    throughputs = {k: len(scenarios) / w for k, w in walls.items()}
    best_new = throughputs["ldl"]
    speedup_vs_baseline = best_new / baseline
    benchmark.extra_info.update(
        {f"{k}_scen_per_s": v for k, v in throughputs.items()}
    )
    benchmark.extra_info["pr5_baseline_scen_per_s"] = baseline
    benchmark.extra_info["best_new_backend_speedup_vs_pr5"] = speedup_vs_baseline

    def telemetry_of(sweep):
        for outcome in sweep.outcomes:
            if outcome.kkt_telemetry:
                return dict(outcome.kkt_telemetry)
        return {}

    # Factorisation share of the solver phase wall, per backend: the Fig. 5
    # attribution the LDLᵀ backend is meant to shrink.
    def factor_share(sweep):
        phases = {}
        for outcome in sweep.outcomes:
            for phase, value in outcome.phase_seconds.items():
                phases[phase] = phases.get(phase, 0.0) + value
        total = sum(phases.values())
        return (phases.get("factorization", 0.0) / total) if total > 0 else 0.0

    perf_recorder(
        "blockdiag_kkt_backend",
        case="case118s",
        n_scenarios=len(scenarios),
        per_slot_wall_seconds=walls["per_slot"],
        blockdiag_wall_seconds=walls["blockdiag"],
        ldl_wall_seconds=walls["ldl"],
        per_slot_scen_per_s=throughputs["per_slot"],
        blockdiag_scen_per_s=throughputs["blockdiag"],
        ldl_scen_per_s=throughputs["ldl"],
        pr5_baseline_scen_per_s=baseline,
        best_new_backend_speedup_vs_pr5=speedup_vs_baseline,
        blockdiag_factorization_share=factor_share(sweep_block),
        ldl_factorization_share=factor_share(sweep_ldl),
        blockdiag_kkt_telemetry=telemetry_of(sweep_block),
        ldl_kkt_telemetry=telemetry_of(sweep_ldl),
    )
    print(
        f"\nKKT backends (case118s, B=16, 1 process): per-slot "
        f"{throughputs['per_slot']:.1f}, blockdiag {throughputs['blockdiag']:.1f}, "
        f"ldl {throughputs['ldl']:.1f} scen/s; best new backend vs BENCH_pr5 "
        f"baseline {baseline:.1f} scen/s: {speedup_vs_baseline:.2f}x"
    )

    # Drop-in parity on any machine: blockdiag is bit-identical to the
    # per-slot loop; ldl agrees in convergence and
    # objective at solver precision (its refined Newton steps can legitimately
    # differ in the last bits).
    for sweep in (sweep_block, sweep_ldl):
        assert sweep.n_scenarios == sweep_slot.n_scenarios == len(scenarios)
    for got, ref in zip(sweep_block.outcomes, sweep_slot.outcomes):
        assert got.scenario_id == ref.scenario_id
        assert got.converged == ref.converged
        if ref.success:
            assert got.iterations == ref.iterations
            assert got.objective == ref.objective
    for got, ref in zip(sweep_ldl.outcomes, sweep_slot.outcomes):
        assert got.scenario_id == ref.scenario_id
        assert got.converged == ref.converged
        if ref.success:
            assert abs(got.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))
    if STRICT:
        assert speedup_vs_baseline >= 1.5, (
            f"best new backend {best_new:.1f} scen/s is "
            f"{speedup_vs_baseline:.2f}x the BENCH_pr5 baseline "
            f"({baseline:.1f} scen/s), below the 1.5x target"
        )


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
