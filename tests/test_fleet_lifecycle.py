"""Fleet lifecycle under failure: shutdown, respawn hygiene and empty sweeps.

A serving fleet must be safe to tear down at any time — including while a
sweep is in flight from another thread — must never leave orphaned spawn
processes behind, and must keep its worker count constant across injected
crashes and outside kills of idle workers.  A worker that cannot start is a
typed error, not an endless respawn.  Degenerate (empty) requests are valid
and return empty results instead of raising.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.parallel.pool as pool_module
from repro.grid.components import REF
from repro.mips import MIPSOptions
from repro.parallel import PoolClosedError, SolverFleet, SweepResult, generate_scenarios
from repro.parallel.supervision import SupervisedPool
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


def _run_bounded(abort, sweep, bound=60.0):
    """Run ``sweep()`` in a thread joined with ``bound`` seconds.

    Returns ``(finished, value, error)``.  A sweep still running at the bound
    is aborted with ``abort()``, so a hang fails the test, not the job.
    """
    box = {}

    def target():
        try:
            box["value"] = sweep()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(bound)
    finished = not thread.is_alive()
    if not finished:
        abort()
        thread.join(15)
    return finished, box.get("value"), box.get("error")


def test_killed_idle_workers_respawn_and_the_next_sweep_returns(case9_fixture, scenarios9):
    """SIGKILL both idle workers between sweeps: the next sweep still answers."""
    with SolverFleet(case9_fixture, n_workers=2) as fleet:
        # A worker is idle once it has served a task; one that is still
        # starting would die before it is ready, which is a start failure.
        first = fleet.solve(scenarios9)
        give_up = time.monotonic() + 60.0
        while len({o.worker for o in first.outcomes}) < 2 and time.monotonic() < give_up:
            first = fleet.solve(scenarios9)
        assert len({o.worker for o in first.outcomes}) == 2
        for proc in fleet._pool.processes:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
        finished, second, error = _run_bounded(fleet.close, lambda: fleet.solve(scenarios9))
        assert finished, "the sweep after the idle kills did not return"
        assert error is None
        assert fleet._pool.respawns == 2
    assert second.errors == 0
    assert [(o.iterations, o.objective) for o in second.outcomes] == [
        (o.iterations, o.objective) for o in first.outcomes
    ]


def _two_reference_buses(case):
    bad = case.copy()
    bad.bus.bus_type[bad.pv_bus_indices()[0]] = REF
    return bad


def test_fleet_rejects_a_bad_case_before_spawning(case9_fixture, monkeypatch):
    """A case ``OPFModel`` rejects raises the same ``ValueError`` at
    construction, in-process or pooled, and no worker is spawned."""
    bad = _two_reference_buses(case9_fixture)

    def no_spawn(*args, **kwargs):
        raise AssertionError("a worker was spawned for a case the parent rejects")

    monkeypatch.setattr(pool_module, "SupervisedPool", no_spawn)
    before = set(multiprocessing.active_children())
    for n_workers in (1, 2):
        with pytest.raises(ValueError, match="reference bus"):
            SolverFleet(bad, n_workers=n_workers)
    assert set(multiprocessing.active_children()) == before


def test_worker_start_failure_raises_instead_of_respawning(case9_fixture):
    """A worker whose start fails (here: a case its model rejects, handed to
    the pool past the fleet's check) fails the pool's first event once;
    nothing is left alive."""
    bad = _two_reference_buses(case9_fixture)
    pool = SupervisedPool(2, initializer=pool_module._init_worker, initargs=(bad, MIPSOptions()))
    try:
        pool.submit(pool_module._solve_task, None)
        finished, _, error = _run_bounded(pool.terminate, pool.next_event)
        procs = pool.processes
    finally:
        pool.terminate()
    assert finished, "a pool whose workers cannot start did not raise"
    assert type(error) is RuntimeError and "before it was ready" in str(error)
    for proc in procs:
        proc.join(timeout=10)
        assert not proc.is_alive()


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
