"""Deterministic fault injection: chaos parity, retries, deadlines, breakers.

The acceptance bar for the fault-tolerant runtime: with a deterministic
injected worker crash mid-sweep, the fleet completes, returns one outcome per
scenario, and every non-quarantined converged scenario is **bitwise
identical** to the fault-free run — on both schedules and both lockstep KKT
backends.  No injected fault may escape the serving engine as an unhandled
exception.
"""

import time

import pytest

from repro.engine import (
    BudgetedFallback,
    CircuitBreaker,
    HealthWindow,
    WarmStartEngine,
    get_fallback_policy,
)
from repro.mips.options import MIPSOptions
from repro.opf import OPFOptions
from repro.parallel import SolverFleet, generate_scenarios
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


def _batch_options(kkt_solver):
    return OPFOptions(mips=MIPSOptions(kkt_solver=kkt_solver))


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
@pytest.mark.parametrize("kkt_solver", ["factorized", "ldl"])
def test_worker_crash_parity(case9_fixture, scenarios9, kkt_solver):
    """A persistent mid-sweep worker kill quarantines exactly the culprit and
    leaves every other scenario bitwise identical to the fault-free run."""
    options = _batch_options(kkt_solver)
    with SolverFleet(case9_fixture, options=options, n_workers=2) as fleet:
        reference = fleet.solve(scenarios9)
    assert reference.errors == 0 and reference.quarantined == 0

    plan = FaultPlan.of(kill_worker(3))
    with SolverFleet(case9_fixture, options=options, n_workers=2, faults=plan) as fleet:
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


def test_crash_retries_zero_bisects_immediately(case9_fixture, scenarios9):
    """With no retry budget the first crash goes straight to bisection."""
    plan = FaultPlan.of(kill_worker(3))
    with SolverFleet(
        case9_fixture,
        n_workers=1,
        faults=plan,
        crash_retries=0,
    ) as fleet:
        sweep = fleet.solve(scenarios9)
    assert sweep.retries == 0 and sweep.quarantined == 1
    assert _by_id(sweep)[3].quarantined
    with pytest.raises(ValueError):
        SolverFleet(case9_fixture, crash_retries=-1)


# -------------------------------------------------------- deadlines / timeouts
def test_expired_deadline_retires_whole_sweep(case9_fixture, scenarios9):
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        sweep = fleet.solve(scenarios9, deadline=time.monotonic() - 1.0)
    assert sweep.n_scenarios == len(scenarios9)
    assert all(o.timed_out and not o.converged for o in sweep.outcomes)
    assert all(not o.quarantined for o in sweep.outcomes)


def test_stalled_scenario_times_out_alone(case9_fixture, scenarios9):
    """A stall past the request deadline retires only the stalled task.

    ``microbatch=1`` puts each scenario in its own pooled task, so the stall
    and its timeout stay confined to scenario 7; the other worker drains the
    rest well inside the deadline.  The first, undeadlined sweep exists only
    to warm the persistent pool — spawn startup on a loaded box can exceed
    the whole deadline, which would retire every scenario instead of just
    the stalled one.
    """
    plan = FaultPlan.of(stall_solve(7, seconds=2.5))
    with SolverFleet(
        case9_fixture,
        n_workers=2,
        microbatch=1,
        faults=plan,
    ) as fleet:
        fleet.solve(scenarios9)
        sweep = fleet.solve(scenarios9, deadline_seconds=2.0)
    got = _by_id(sweep)
    assert got[7].timed_out and not got[7].converged and not got[7].quarantined
    for sid in range(7):
        assert got[sid].converged and not got[sid].timed_out


def test_deadline_seconds_must_be_positive(case9_fixture, scenarios9):
    with SolverFleet(case9_fixture, n_workers=1) as fleet:
        with pytest.raises(ValueError, match="deadline_seconds"):
            fleet.solve(scenarios9, deadline_seconds=0.0)


# ------------------------------------------------------------- serving engine
def test_no_fault_escapes_engine_serve(trained_trainer9, case9_fixture):
    """Injected kills and raises surface as structured outcomes, never as
    exceptions from ``WarmStartEngine.serve*``."""
    scenarios = generate_scenarios(case9_fixture, 6, seed=4, contingency_fraction=0.5)
    plan = FaultPlan.of(kill_worker(1), raise_in_solver(4, message="chaos"))
    engine = WarmStartEngine.from_trainer(trained_trainer9)
    engine.faults = plan
    with engine:
        sweep = engine.serve(scenarios, n_workers=2, deadline_seconds=60.0)
    assert sweep.n_scenarios == 6
    got = _by_id(sweep)
    assert got[1].quarantined and got[4].quarantined
    assert all(got[s].converged for s in (0, 2, 3, 5))
    assert sweep.quarantined == 2


def test_engine_serve_deadline_records_timeouts(trained_trainer9, case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 3, seed=5)
    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        sweep = engine.serve(scenarios, deadline_seconds=1e-9)
    assert all(o.timed_out for o in sweep.outcomes)


# ------------------------------------------------- health window and breaker
def test_health_window_rolls_and_resets():
    window = HealthWindow(window=3)
    assert window.fallback_rate == 0.0 and window.n_observations == 0
    for used in (True, True, False):
        window.record(used)
    assert window.fallback_rate == pytest.approx(2 / 3)
    window.record(False)  # evicts the oldest True
    assert window.fallback_rate == pytest.approx(1 / 3)
    window.reset()
    assert window.n_observations == 0
    with pytest.raises(ValueError):
        HealthWindow(window=0)


def test_circuit_breaker_state_machine():
    breaker = CircuitBreaker(window=8, threshold=0.5, min_observations=2, cooldown=2)
    assert breaker.state == CircuitBreaker.CLOSED and breaker.allow_warm()

    breaker.record(True)
    assert breaker.state == CircuitBreaker.CLOSED  # below min_observations
    breaker.record(True)
    assert breaker.state == CircuitBreaker.OPEN and breaker.trips == 1
    assert not breaker.allow_warm()

    breaker.record(False)  # degraded request 1 of cooldown
    assert breaker.state == CircuitBreaker.OPEN
    breaker.record(False)  # cooldown elapsed -> half-open probe
    assert breaker.state == CircuitBreaker.HALF_OPEN and breaker.allow_warm()

    breaker.record(True)  # failed probe re-trips
    assert breaker.state == CircuitBreaker.OPEN and breaker.trips == 2
    breaker.record(False)
    breaker.record(False)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record(False)  # clean probe closes and resets the window
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.health.n_observations == 0

    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown=0)


def test_breaker_degrades_engine_to_cold_path(trained_trainer9, case9_fixture):
    """A fallback-heavy stream trips the breaker; the next request skips warm
    inference and is served degraded while the breaker cools down."""
    # One iteration is never enough: every warm attempt fails and uses the
    # fallback, so the health window saturates immediately.
    options = OPFOptions(mips=MIPSOptions(max_it=1))
    breaker = CircuitBreaker(window=4, threshold=0.5, min_observations=2, cooldown=16)
    scenarios = generate_scenarios(case9_fixture, 4, seed=6)
    with WarmStartEngine.from_trainer(
        trained_trainer9, opf_options=options
    ) as engine:
        engine.breaker = breaker
        first = engine.serve(scenarios)
        assert first.fallback_rate == 1.0
        assert breaker.trips == 1 and breaker.state == CircuitBreaker.OPEN
        second = engine.serve(scenarios)
        # Degraded request: cold starts everywhere, still one outcome each.
        assert second.n_scenarios == 4
        assert breaker.state == CircuitBreaker.OPEN  # still cooling down


# ------------------------------------------------------------ budgeted policy
class _StubResult:
    def __init__(self, success):
        self.success = success


def test_budgeted_fallback_retries_with_backoff_then_cold():
    policy = get_fallback_policy("budgeted")
    assert isinstance(policy, BudgetedFallback)
    options = OPFOptions()
    calls = []

    def failing_solve(warm, solve_options):
        calls.append((warm, solve_options))
        return _StubResult(False)

    result = policy.recover(failing_solve, "WARM", _StubResult(False), options)
    # max_retries relaxed attempts, then the cold restart (warm=None).
    assert len(calls) == policy.max_retries + 1
    assert calls[-1][0] is None and calls[-1][1] is options
    for attempt, (warm, solve_options) in enumerate(calls[:-1]):
        assert warm == "WARM"
        expected = options.mips.feastol * policy.backoff_scale ** (attempt + 1)
        assert solve_options.mips.feastol == pytest.approx(expected)
    assert result.success is False


def test_budgeted_fallback_stops_at_first_success():
    policy = BudgetedFallback(max_retries=3)
    calls = []

    def solve(warm, solve_options):
        calls.append(warm)
        return _StubResult(len(calls) == 2)

    result = policy.recover(solve, "WARM", _StubResult(False), OPFOptions())
    assert result.success and len(calls) == 2


def test_budgeted_fallback_without_cold_restart_returns_last_attempt():
    policy = BudgetedFallback(max_retries=2, cold_restart_on_exhaustion=False)
    calls = []

    def solve(warm, solve_options):
        calls.append(warm)
        return _StubResult(False)

    result = policy.recover(solve, "WARM", _StubResult(False), OPFOptions())
    assert len(calls) == 2 and all(w == "WARM" for w in calls)
    assert result is not None and not result.success
    with pytest.raises(ValueError):
        BudgetedFallback(max_retries=-1)
    with pytest.raises(ValueError):
        BudgetedFallback(backoff_scale=1.0)
