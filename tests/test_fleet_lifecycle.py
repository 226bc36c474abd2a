"""Fleet lifecycle under failure: shutdown, respawn hygiene and empty sweeps.

A serving fleet must be safe to tear down at any time — including while a
sweep is in flight from another thread — must never leave orphaned spawn
processes behind, and must keep its worker count constant across injected
crashes.  Degenerate (empty) requests are valid and return empty results
instead of raising.
"""

import threading
import time

import pytest

from repro.parallel import PoolClosedError, SolverFleet, SweepResult, generate_scenarios
from repro.parallel.scenarios import ScenarioSet
from repro.testing.faults import FaultPlan, kill_worker, stall_solve


@pytest.fixture(scope="module")
def scenarios9(case9_fixture):
    return generate_scenarios(case9_fixture, 6, seed=1, contingency_fraction=0.5)


# ------------------------------------------------------------------- shutdown
def test_close_is_idempotent_and_final(case9_fixture, scenarios9):
    fleet = SolverFleet(case9_fixture, n_workers=2)
    procs = list(fleet._pool.processes)
    assert len(procs) == 2 and all(p.is_alive() for p in procs)
    fleet.close()
    fleet.close()  # second close is a no-op
    for proc in procs:
        proc.join(timeout=10)
        assert not proc.is_alive()
    with pytest.raises(RuntimeError, match="closed"):
        fleet.solve(scenarios9)


def test_context_manager_leaves_no_orphan_processes(case9_fixture, scenarios9):
    with SolverFleet(case9_fixture, n_workers=2) as fleet:
        sweep = fleet.solve(scenarios9)
        assert sweep.n_scenarios == len(scenarios9)
        procs = list(fleet._pool.processes)
    for proc in procs:
        proc.join(timeout=10)
        assert not proc.is_alive()


def test_close_with_sweep_in_flight_aborts_cleanly(case9_fixture, scenarios9):
    """Closing from another thread aborts the dispatch instead of hanging."""
    plan = FaultPlan.of(*(stall_solve(sid, seconds=30.0) for sid in range(len(scenarios9))))
    fleet = SolverFleet(case9_fixture, n_workers=2, faults=plan)
    procs = list(fleet._pool.processes)
    raised = []

    def sweep_thread():
        try:
            fleet.solve(scenarios9)
        except PoolClosedError as exc:
            raised.append(exc)

    thread = threading.Thread(target=sweep_thread)
    thread.start()
    time.sleep(0.5)  # let the dispatch enter the stalled tasks
    fleet.close()
    thread.join(timeout=15)
    assert not thread.is_alive()
    assert len(raised) == 1
    for proc in procs:
        proc.join(timeout=10)
        assert not proc.is_alive()


def test_crash_respawn_keeps_worker_count_and_fleet_reusable(case9_fixture, scenarios9):
    """A crashed worker is respawned into its slot; the fleet keeps serving."""
    plan = FaultPlan.of(kill_worker(2, last_attempt=0))
    with SolverFleet(case9_fixture, n_workers=2, faults=plan) as fleet:
        first = fleet.solve(scenarios9)
        assert fleet._pool.respawns >= 1
        assert len(fleet._pool.processes) == 2
        assert all(p.is_alive() for p in fleet._pool.processes)
        # The plan is stateless (keyed on scenario + attempt), so the second
        # sweep trips — and absorbs — the same transient kill via one retry.
        second = fleet.solve(scenarios9)
    assert first.success_rate == second.success_rate
    assert second.quarantined == 0 and second.retries >= 1
    for a, b in zip(first.outcomes, second.outcomes):
        assert a.objective == b.objective


# ---------------------------------------------------------------- empty sweeps
def test_empty_sweep_result_rates_are_defined():
    empty = SweepResult(case_name="case9", n_workers=1)
    assert empty.n_scenarios == 0
    assert empty.success_rate == 0.0
    assert empty.warm_success_rate == 0.0
    assert empty.fallback_rate == 0.0
    assert empty.total_solver_seconds() == 0.0
    import math

    assert math.isnan(empty.throughput)  # zero wall, zero work


def test_in_process_fleet_solves_empty_set(case9_fixture):
    empty = ScenarioSet(case9_fixture.name, [])
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        sweep = fleet.solve(empty)
    assert sweep.n_scenarios == 0 and sweep.outcomes == []
    assert sweep.errors == 0 and sweep.retries == 0 and sweep.quarantined == 0
    assert sweep.success_rate == 0.0


def test_pooled_fleet_solves_empty_set(case9_fixture):
    empty = ScenarioSet(case9_fixture.name, [])
    with SolverFleet(case9_fixture, n_workers=2) as fleet:
        sweep = fleet.solve(empty)
        many = fleet.solve_many([empty, empty])
    assert sweep.n_scenarios == 0
    assert [s.n_scenarios for s in many] == [0, 0]
