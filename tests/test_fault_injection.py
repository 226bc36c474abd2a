"""Deterministic fault injection: chaos parity, retries, deadlines.

The acceptance bar for the fault-tolerant runtime: with a deterministic
injected worker crash mid-sweep, the fleet completes, returns one outcome per
scenario, and every non-quarantined converged scenario is **bitwise
identical** to the fault-free run.  No injected fault may escape the serving engine as an unhandled
exception.
"""

import time

import pytest

import repro.parallel.pool as pool
from repro.engine import WarmStartEngine
from repro.parallel import ScenarioSet, SolverFleet, generate_scenarios
from repro.testing.faults import (
    FaultPlan,
    FaultSpec,
    kill_at_task,
    kill_worker,
    raise_in_solver,
    stall_solve,
)


@pytest.fixture(scope="module")
def scenarios9(case9_fixture):
    """Eight scenarios, half with N-1 outages (mixed topology groups)."""
    return generate_scenarios(case9_fixture, 8, seed=0, contingency_fraction=0.5)


def _by_id(sweep):
    return {o.scenario_id: o for o in sweep.outcomes}


# ------------------------------------------------------------- plan semantics
def test_fault_spec_attempt_windows():
    persistent = kill_worker(3)
    assert persistent.applies(3, 0) and persistent.applies(3, 5)
    assert not persistent.applies(4, 0)
    transient = kill_worker(3, last_attempt=0)
    assert transient.applies(3, 0) and not transient.applies(3, 1)
    late = raise_in_solver(2, first_attempt=1)
    assert not late.applies(2, 0) and late.applies(2, 1)
    with pytest.raises(ValueError):
        FaultSpec(kind="warp", scenario_id=0)
    with pytest.raises(ValueError):
        kill_worker(1, first_attempt=2, last_attempt=1)


def test_fault_plan_lookups():
    plan = FaultPlan.of(kill_worker(3), raise_in_solver(5, message="boom"), stall_solve(1, 0.25))
    assert plan and not FaultPlan.none()
    assert plan.kill_for([0, 3], attempt=0) is not None
    assert plan.kill_for([0, 4], attempt=0) is None
    assert plan.raise_for([5], attempt=2).message == "boom"
    assert plan.stall_seconds([1, 2], attempt=0) == pytest.approx(0.25)
    assert plan.stall_seconds([2], attempt=0) == 0.0
    indexed = FaultPlan.of(kill_at_task(2))
    assert indexed.kill_at_task_index(2) and not indexed.kill_at_task_index(1)


# ---------------------------------------------------------------- chaos parity
def test_worker_crash_parity(case9_fixture, scenarios9):
    """A persistent mid-sweep worker kill quarantines exactly the culprit and
    leaves every other scenario bitwise identical to the fault-free run."""
    with SolverFleet(case9_fixture, n_workers=2) as fleet:
        reference = fleet.solve(scenarios9)
    assert reference.errors == 0 and reference.quarantined == 0

    plan = FaultPlan.of(kill_worker(3))
    with SolverFleet(case9_fixture, n_workers=2, faults=plan) as fleet:
        chaos = fleet.solve(scenarios9)

    assert chaos.n_scenarios == len(scenarios9)
    assert sorted(o.scenario_id for o in chaos.outcomes) == list(range(len(scenarios9)))
    assert chaos.errors > 0 and chaos.quarantined == 1

    ref, got = _by_id(reference), _by_id(chaos)
    assert got[3].quarantined and not got[3].converged and got[3].error
    for sid in range(len(scenarios9)):
        if sid == 3:
            continue
        assert got[sid].converged == ref[sid].converged
        assert got[sid].objective == ref[sid].objective
        assert got[sid].iterations == ref[sid].iterations


def test_transient_crash_retries_to_full_parity(case9_fixture, scenarios9):
    """A kill absorbed by one retry costs accounting, not results."""
    with SolverFleet(case9_fixture, n_workers=2) as fleet:
        reference = fleet.solve(scenarios9)

    plan = FaultPlan.of(kill_worker(3, last_attempt=0))
    with SolverFleet(
        case9_fixture,
        n_workers=2,
        faults=plan,
    ) as fleet:
        chaos = fleet.solve(scenarios9)
        assert fleet._pool.respawns >= 1

    assert chaos.quarantined == 0 and chaos.retries >= 1
    ref, got = _by_id(reference), _by_id(chaos)
    assert got[3].retries >= 1
    for sid in range(len(scenarios9)):
        assert got[sid].converged == ref[sid].converged
        assert got[sid].objective == ref[sid].objective


def test_raise_in_solver_quarantines_culprit_in_process(case9_fixture, scenarios9):
    """The in-process fleet runs the identical retry/bisect/quarantine policy."""
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        reference = fleet.solve(scenarios9)

    plan = FaultPlan.of(raise_in_solver(5, message="injected numerical explosion"))
    with SolverFleet(case9_fixture, n_workers=1, faults=plan) as fleet:
        chaos = fleet.solve(scenarios9)

    got, ref = _by_id(chaos), _by_id(reference)
    assert got[5].quarantined and "injected numerical explosion" in got[5].error
    assert chaos.quarantined == 1
    for sid in range(len(scenarios9)):
        if sid == 5:
            continue
        assert got[sid].objective == ref[sid].objective


def test_kill_at_task_is_transient_in_process(case9_fixture, scenarios9):
    """A task-counter kill hits once; the retried task finds a moved counter."""
    plan = FaultPlan.of(kill_at_task(0))
    with SolverFleet(case9_fixture, n_workers=1, faults=plan) as fleet:
        sweep = fleet.solve(scenarios9)
    assert sweep.errors >= 1 and sweep.retries >= 1 and sweep.quarantined == 0
    assert all(o.converged for o in sweep.outcomes)


def test_crash_retries_zero_bisects_immediately(case9_fixture, scenarios9, monkeypatch):
    """With no retry budget the first crash goes straight to bisection."""
    monkeypatch.setattr(pool, "_CRASH_RETRIES", 0)
    plan = FaultPlan.of(kill_worker(3))
    with SolverFleet(case9_fixture, n_workers=1, faults=plan) as fleet:
        sweep = fleet.solve(scenarios9)
    assert sweep.retries == 0 and sweep.quarantined == 1
    assert _by_id(sweep)[3].quarantined


# -------------------------------------------------------- deadlines / timeouts
def test_expired_deadline_retires_whole_sweep(case9_fixture, scenarios9):
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        sweep = fleet.solve(scenarios9, deadline=time.monotonic() - 1.0)
    assert sweep.n_scenarios == len(scenarios9)
    assert all(o.timed_out and not o.converged for o in sweep.outcomes)
    assert all(not o.quarantined for o in sweep.outcomes)


def test_stalled_scenario_times_out_alone(case9_fixture, scenarios9):
    """A stall past the request deadline retires only the stalled task.

    Two scenarios on two workers are cut into one-row pooled tasks, so the
    stall and its timeout stay confined to scenario 7; the other worker
    solves scenario 6 well inside the deadline.  The first, undeadlined sweep
    exists only to warm the persistent pool — spawn startup on a loaded box
    can exceed the whole deadline, which would retire every scenario instead
    of just the stalled one.
    """
    last2 = ScenarioSet(case9_fixture.name, scenarios9.scenarios[6:], n_bus=case9_fixture.n_bus)
    assert [len(mb) for mb in pool._microbatches(len(last2), 2)] == [1, 1]
    plan = FaultPlan.of(stall_solve(7, seconds=2.5))
    with SolverFleet(case9_fixture, n_workers=2, faults=plan) as fleet:
        fleet.solve(last2)
        sweep = fleet.solve(last2, deadline=time.monotonic() + 2.0)
    got = _by_id(sweep)
    assert sorted(got) == [6, 7]
    assert got[7].timed_out and not got[7].converged and not got[7].quarantined
    assert got[6].converged and not got[6].timed_out


def test_bisection_carries_per_row_deadlines(case9_fixture, scenarios9):
    """Fragments of a bisected task keep each row's own deadline.

    Scenario 5 raises on every attempt, so its task is retried, then halved
    until 5 is alone; scenario 4 rides with it through every cut and its
    deadline has already passed.  The expired row must retire as timed out
    (never quarantined), the culprit must be quarantined, and every other row
    must match the fault-free sweep bit for bit.
    """
    culprit, expired = scenarios9[5].scenario_id, scenarios9[4].scenario_id
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        reference = fleet.solve(scenarios9)
    deadlines = [float("inf")] * len(scenarios9)
    deadlines[4] = time.monotonic() - 1.0
    plan = FaultPlan.of(raise_in_solver(culprit, message="poison row"))
    with SolverFleet(case9_fixture, n_workers=1, faults=plan) as fleet:
        chaos = fleet.solve(scenarios9, deadline=deadlines)

    got, ref = _by_id(chaos), _by_id(reference)
    assert got[expired].timed_out and not got[expired].quarantined
    assert got[culprit].quarantined and "poison row" in got[culprit].error
    assert chaos.quarantined == 1
    for sid, outcome in got.items():
        if sid in (culprit, expired):
            continue
        assert not outcome.timed_out and not outcome.quarantined
        expected = ref[sid]
        assert (outcome.success, outcome.iterations, outcome.used_fallback) == (
            expected.success, expected.iterations, expected.used_fallback
        )
        assert outcome.objective.hex() == expected.objective.hex()
        assert outcome.final_objective.hex() == expected.final_objective.hex()


def test_negative_infinite_deadline_retires_its_row(case9_fixture, scenarios9):
    """A ``-inf`` absolute deadline has passed, alone or beside finite ones."""
    inf = float("inf")
    n = len(scenarios9)
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        reference = _by_id(fleet.solve(scenarios9))
        everywhere = fleet.solve(scenarios9, deadline=-inf)
        beside_finite = fleet.solve(
            scenarios9, deadline=[-inf, time.monotonic() + 600.0] + [inf] * (n - 2)
        )
        beside_unbounded = fleet.solve(scenarios9, deadline=[-inf] + [inf] * (n - 1))
    assert all(o.timed_out and not o.converged for o in everywhere.outcomes)
    for sweep in (beside_finite, beside_unbounded):
        got = _by_id(sweep)
        first = scenarios9[0].scenario_id
        assert got[first].timed_out and not got[first].converged
        for sid, outcome in got.items():
            if sid != first:
                assert not outcome.timed_out
                assert outcome.final_objective.hex() == reference[sid].final_objective.hex()


# ------------------------------------------------------------- serving engine
def test_no_fault_escapes_engine_serve(trained_trainer9, case9_fixture):
    """Injected kills and raises surface as structured outcomes, never as
    exceptions from ``WarmStartEngine.serve*``."""
    scenarios = generate_scenarios(case9_fixture, 6, seed=4, contingency_fraction=0.5)
    plan = FaultPlan.of(kill_worker(1), raise_in_solver(4, message="chaos"))
    engine = WarmStartEngine.from_trainer(trained_trainer9)
    engine.faults = plan
    with engine:
        sweep = engine.serve(scenarios, n_workers=2, deadline=time.monotonic() + 60.0)
    assert sweep.n_scenarios == 6
    got = _by_id(sweep)
    assert got[1].quarantined and got[4].quarantined
    assert all(got[s].converged for s in (0, 2, 3, 5))
    assert sweep.quarantined == 2


def test_engine_serve_deadline_records_timeouts(trained_trainer9, case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 3, seed=5)
    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        sweep = engine.serve(scenarios, deadline=time.monotonic() + 1e-9)
    assert all(o.timed_out for o in sweep.outcomes)

