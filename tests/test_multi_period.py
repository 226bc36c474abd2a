"""Multi-period trajectory sweeps: chaining semantics, invariance, engine serving.

The trajectory driver must (a) genuinely exploit temporal locality — warm
chaining makes the post-cold steps dramatically cheaper than serving every
step cold; (b) mask ``µ``/``Z`` across topology changes while always carrying
the primal point and equality multipliers; (c) stay a pure scheduling layer —
per-step results bitwise invariant under the fleet's lockstep window; and
(d) integrate with :class:`WarmStartEngine` serving (generation stamping,
per-step records, the cold per-step baseline).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import case9, case14, sample_load_trajectory
from repro.parallel import (
    MultiPeriodSweep,
    Scenario,
    SolverFleet,
    chained_warm_start,
    screened_outage_sets,
    trajectory_steps,
)
from repro.parallel.pool import ScenarioSolution


# ---------------------------------------------------------------- step builder
def test_trajectory_steps_alignment_and_ids():
    case = case14()
    samples = sample_load_trajectory(case, n_steps=4, seed=0)
    pair = screened_outage_sets(case, k=2, max_sets=1, seed=0)[0]
    steps = trajectory_steps(case, samples, outage_branches=((), (0,), pair))
    assert len(steps) == 4
    for t, step in enumerate(steps):
        assert len(step) == 3
        assert [s.scenario_id for s in step] == [0, 1, 2]
        assert step[0].outage_branches == ()
        assert step[1].outage_branches == (0,)
        assert step[2].outage_branches == pair
        assert np.array_equal(step[0].Pd, samples[t].Pd)
    with pytest.raises(ValueError, match="at least one"):
        trajectory_steps(case, samples, outage_branches=())


def test_trajectory_samples_drift_smoothly():
    case = case9()
    samples = sample_load_trajectory(case, n_steps=24, seed=1)
    assert len(samples) == 24
    loaded = case.bus.Pd > 0
    for prev, cur in zip(samples, samples[1:]):
        step_change = np.abs(cur.Pd[loaded] / prev.Pd[loaded] - 1.0)
        # Consecutive steps differ by a few percent — the warm-start regime —
        # never by the independent-resample jump of ~2*variation+amplitude.
        assert np.max(step_change) < 0.12


# ---------------------------------------------------------- chaining semantics
def test_chained_warm_start_masks_duals_on_topology_change():
    solution = ScenarioSolution(
        x=np.arange(4.0), lam=np.arange(3.0), mu=np.arange(1.0, 3.0), z=np.arange(1.0, 3.0)
    )
    Pd, Qd = np.zeros(3), np.zeros(3)
    same_a = Scenario(0, Pd, Qd, outage_branches=(1,))
    same_b = Scenario(1, Pd, Qd, outage_branches=(1,))
    changed = Scenario(2, Pd, Qd, outage_branches=(1, 2))

    kept = chained_warm_start(solution, same_a, same_b)
    assert np.array_equal(kept.x, solution.x)
    assert np.array_equal(kept.lam, solution.lam)
    assert kept.mu is not None and kept.z is not None

    masked = chained_warm_start(solution, same_a, changed)
    assert np.array_equal(masked.x, solution.x)
    assert np.array_equal(masked.lam, solution.lam)
    assert masked.mu is None and masked.z is None

    assert chained_warm_start(None, same_a, same_b) is None


def test_warm_chaining_beats_per_step_cold():
    """The Fig. 4 gap, time-unrolled: cold step 0, cheap warm tail."""
    case = case9()
    steps = trajectory_steps(case, sample_load_trajectory(case, n_steps=6, seed=2))
    with SolverFleet(case, collect_solutions=True) as fleet:
        chained = MultiPeriodSweep(fleet, warm_chain=True).run(steps)
        cold = MultiPeriodSweep(fleet, warm_chain=False).run(steps)
    assert chained.success_rate == 1.0 and cold.success_rate == 1.0
    chained_iters = chained.iterations_by_step()
    cold_iters = cold.iterations_by_step()
    # Step 0 is cold either way (no model seeding here) — identical work.
    assert chained_iters[0] == cold_iters[0]
    # Every later step is strictly cheaper warm-chained, by a lot in sum.
    assert all(w < c for w, c in zip(chained_iters[1:], cold_iters[1:]))
    assert sum(chained_iters[1:]) < 0.5 * sum(cold_iters[1:])
    # Records are threaded per step.
    assert [s.period for s in chained.steps] == list(range(6))
    assert chained.n_steps == 6 and chained.n_solves == 6


def test_trajectory_chains_through_topology_changes():
    """A mid-trajectory outage flip solves and keeps chaining afterwards."""
    case = case14()
    samples = sample_load_trajectory(case, n_steps=5, seed=3)
    safe = screened_outage_sets(case, k=1, max_sets=1, seed=0)[0]
    steps = trajectory_steps(case, samples)
    # Flip step 2's topology: same loads, one branch out.
    steps[2].scenarios[0] = Scenario(
        0, samples[2].Pd, samples[2].Qd, outage_branches=safe
    )
    with SolverFleet(case, collect_solutions=True) as fleet:
        result = MultiPeriodSweep(fleet).run(steps)
    assert result.success_rate == 1.0
    iters = result.iterations_by_step()
    # The topology-change step pays more than its warm neighbours (µ/Z were
    # masked) but far less than the cold start.
    assert iters[2] <= iters[0]
    assert iters[3] < iters[2]


def test_trajectory_bitwise_invariant_under_lockstep_window():
    """Window size is pure scheduling inside every step of a trajectory."""
    case = case14()
    pairs = screened_outage_sets(case, k=2, max_sets=2, seed=1)
    samples = sample_load_trajectory(case, n_steps=3, seed=4)
    steps = trajectory_steps(case, samples, outage_branches=((), *pairs))
    results = []
    for microbatch in (None, 1):
        with SolverFleet(case, microbatch=microbatch, collect_solutions=True) as fleet:
            results.append(MultiPeriodSweep(fleet).run(steps))
    a, b = results
    assert a.success_rate == 1.0
    for sa, sb in zip(a.steps, b.steps):
        for oa, ob in zip(sa.outcomes, sb.outcomes):
            assert oa.iterations == ob.iterations
            assert oa.objective == ob.objective
            assert np.array_equal(oa.solution.x, ob.solution.x)
            assert np.array_equal(oa.solution.lam, ob.solution.lam)
            assert np.array_equal(oa.solution.mu, ob.solution.mu)
            assert np.array_equal(oa.solution.z, ob.solution.z)


def test_multi_period_sweep_rejects_bad_inputs():
    case = case9()
    with SolverFleet(case) as no_solutions_fleet:
        with pytest.raises(ValueError, match="collect_solutions"):
            MultiPeriodSweep(no_solutions_fleet)
    steps = trajectory_steps(case, sample_load_trajectory(case, n_steps=2, seed=0))
    ragged = [steps[0], trajectory_steps(case, sample_load_trajectory(case, 1, seed=0), outage_branches=((), (0,)))[0]]
    with SolverFleet(case, collect_solutions=True) as fleet:
        driver = MultiPeriodSweep(fleet)
        with pytest.raises(ValueError, match="at least one step"):
            driver.run([])
        with pytest.raises(ValueError, match="same sub-cases"):
            driver.run(ragged)


# ------------------------------------------------------------- engine serving
def test_engine_serve_trajectory(trained_trainer9):
    from repro.engine import WarmStartEngine

    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        case = engine.case
        steps = trajectory_steps(case, sample_load_trajectory(case, n_steps=4, seed=5))
        result = engine.serve_trajectory(steps)
        assert result.n_steps == 4
        assert [s.period for s in result.steps] == [0, 1, 2, 3]
        assert all(s.model_generation == engine.generation for s in result.steps)
        assert result.success_rate == 1.0
        # Step 0 got model warm starts; later steps chain — total work must
        # not exceed the per-step (model-each-step) baseline.
        baseline = engine.serve_trajectory(steps, warm_chain=False)
        assert result.total_iterations <= baseline.total_iterations
        # Empty trajectory short-circuits.
        empty = engine.serve_trajectory([])
        assert empty.n_steps == 0 and empty.wall_seconds == 0.0
