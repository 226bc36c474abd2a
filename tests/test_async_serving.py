"""Batcher-invariance suite for the async serving front-end.

Mirrors ``test_scheduler_invariants.py`` one layer up: per-request results
must be **bitwise** independent of how the continuous batcher happened to cut
traffic into flushes — arrival interleaving, flush boundaries (``max_batch``),
coalescing partners and fleet width — because the engine's retrieval start
is computed per row and lockstep solves are row-independent.  Plus the flush rule
itself, checked without reading a clock (a gated engine holds a flush in
flight while requests queue behind it), and the deadline semantics the
batcher rides on: the row-wise deadline gate (only expired rows retire),
mixed-deadline coalescing, deterministic overload rejection and
all-cancelled flush tolerance.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.engine import WarmStartEngine
from repro.parallel import SolverFleet, generate_scenarios
from repro.parallel.scenarios import Scenario, ScenarioSet
from repro.serving import AsyncServer, OverloadedError


def _assert_bitwise_equal_outcomes(a, b):
    assert a.scenario_id == b.scenario_id
    assert a.success == b.success
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    if a.success:
        assert a.objective == b.objective


def _assert_bitwise_equal_sweeps(a, b):
    assert a.n_scenarios == b.n_scenarios
    for oa, ob in zip(a.outcomes, b.outcomes):
        _assert_bitwise_equal_outcomes(oa, ob)


@pytest.fixture(scope="module")
def engine9(trained_trainer9):
    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        yield engine


def _requests_from(dataset, sizes, start=0):
    """Cut ``sizes`` consecutive per-request load slices out of the dataset."""
    requests, row = [], start
    for size in sizes:
        requests.append((dataset.Pd_mw[row : row + size], dataset.Qd_mw[row : row + size]))
        row += size
    return requests


class _GatedEngine:
    """Engine proxy: the first ``serve`` blocks until ``release`` is set.

    Holding one flush in flight lets a test queue requests behind it and
    observe how the batcher cuts that backlog, with no timing involved.
    Every ``serve`` records its scenario count in ``widths``.
    """

    def __init__(self, engine):
        self._engine = engine
        self.case = engine.case
        self.entered = threading.Event()
        self.release = threading.Event()
        self.widths = []

    def serve(self, scenarios, **kwargs):
        self.widths.append(len(scenarios))
        if len(self.widths) == 1:
            self.entered.set()
            assert self.release.wait(timeout=60), "gated flush never released"
        return self._engine.serve(scenarios, **kwargs)

    async def wait_entered(self):
        """Return once the first flush is blocked inside the engine."""
        assert await asyncio.to_thread(self.entered.wait, 60)


async def _serve_concurrently(engine, requests, **server_kwargs):
    async with AsyncServer(engine, **server_kwargs) as server:
        sweeps = await asyncio.gather(
            *(server.submit_loads(Pd, Qd, deadline_seconds=60.0) for Pd, Qd in requests)
        )
        stats = server.stats
    return sweeps, stats


# ------------------------------------------------------------------ invariance
def test_coalesced_requests_match_direct_serve_bitwise(engine9, dataset9):
    """One flush of three coalesced requests == three direct serve calls."""
    requests = _requests_from(dataset9, [2, 2, 2])
    sweeps, stats = asyncio.run(
        _serve_concurrently(engine9, requests, max_batch=6)
    )
    # All three were admitted before the batcher woke, so they rode one flush.
    assert stats.flushes == 1 and stats.widest_flush == 6
    for (Pd, Qd), sweep in zip(requests, sweeps):
        direct = engine9.serve_loads(Pd, Qd)
        _assert_bitwise_equal_sweeps(sweep, direct)
        assert sweep.model_generation == direct.model_generation


def test_results_invariant_to_arrival_interleaving(engine9, dataset9):
    """Coalesced, sequential and reversed arrivals produce identical results.

    The width-1 request rides a single-row flush on the sequential path, so
    its start is computed alone and must match the coalesced one bitwise.
    """
    requests = _requests_from(dataset9, [1, 2, 3])
    coalesced, _ = asyncio.run(_serve_concurrently(engine9, requests, max_batch=6))
    reversed_sweeps, _ = asyncio.run(
        _serve_concurrently(engine9, list(reversed(requests)), max_batch=6)
    )
    reversed_sweeps = list(reversed(reversed_sweeps))

    async def sequential():
        results = []
        async with AsyncServer(engine9, max_batch=6) as server:
            for Pd, Qd in requests:
                results.append(await server.submit_loads(Pd, Qd))
        return results

    one_by_one = asyncio.run(sequential())
    for a, b, c in zip(coalesced, reversed_sweeps, one_by_one):
        _assert_bitwise_equal_sweeps(a, b)
        _assert_bitwise_equal_sweeps(a, c)


def test_results_invariant_to_flush_boundaries(engine9, dataset9):
    """max_batch (and with it the flush cuts) must not leak into results."""
    requests = _requests_from(dataset9, [2, 1, 3])
    reference = [engine9.serve_loads(Pd, Qd) for Pd, Qd in requests]
    for max_batch in (1, 2, 3, 100):
        sweeps, _ = asyncio.run(
            _serve_concurrently(engine9, requests, max_batch=max_batch)
        )
        for sweep, direct in zip(sweeps, reference):
            _assert_bitwise_equal_sweeps(sweep, direct)


def test_results_invariant_to_worker_count(engine9, dataset9):
    """A multi-process flush serves the same bits as the in-process fleet."""
    requests = _requests_from(dataset9, [2, 2])
    reference = [engine9.serve_loads(Pd, Qd) for Pd, Qd in requests]
    sweeps, _ = asyncio.run(
        _serve_concurrently(engine9, requests, max_batch=4, n_workers=2)
    )
    for sweep, direct in zip(sweeps, reference):
        assert sweep.n_workers == 2
        _assert_bitwise_equal_sweeps(sweep, direct)


# ------------------------------------------------------------------ flush rule
def test_backlog_behind_a_busy_flush_rides_the_next_flush(engine9, dataset9):
    """Requests queued while the executor is busy leave together, at once.

    The first flush is held inside the engine while three requests queue
    behind it.  Released, the batcher takes the whole backlog in one flush —
    nothing waits for a timer, and nothing leaves alone.
    """
    head, *backlog = _requests_from(dataset9, [1, 2, 2, 3])
    gated = _GatedEngine(engine9)

    async def run():
        async with AsyncServer(gated, max_batch=16) as server:
            try:
                first = asyncio.create_task(server.submit_loads(*head))
                await gated.wait_entered()
                queued = [
                    asyncio.create_task(server.submit_loads(Pd, Qd)) for Pd, Qd in backlog
                ]
                await asyncio.sleep(0)  # all three admitted behind the gated flush
            finally:
                gated.release.set()
            sweeps = await asyncio.gather(first, *queued)
            return sweeps, server.stats

    sweeps, stats = asyncio.run(run())
    assert stats.flushes == 2
    assert stats.widest_flush == 2 + 2 + 3
    assert gated.widths == [1, 7]
    for (Pd, Qd), sweep in zip([head, *backlog], sweeps):
        _assert_bitwise_equal_sweeps(sweep, engine9.serve_loads(Pd, Qd))


def test_closed_loop_clients_each_ride_every_flush(engine9, dataset9):
    """k closed-loop clients produce flushes of exactly k requests.

    A client sends its next request only when the last came back, and every
    answer of a flush lands before the batcher looks at the queue again, so
    each flush after the first carries one request from every client.
    """
    k, rounds = 3, 4
    requests = _requests_from(dataset9, [1] * (k * rounds))
    pending = iter(requests)
    gated = _GatedEngine(engine9)
    gated.release.set()  # record widths only; no flush is held

    async def run():
        async with AsyncServer(gated, max_batch=16) as server:

            async def client():
                for Pd, Qd in pending:
                    await server.submit_loads(Pd, Qd)

            await asyncio.gather(*(client() for _ in range(k)))
            return server.stats

    stats = asyncio.run(run())
    # One-scenario requests: a flush's width is its request count.
    assert gated.widths[1:] == [k] * (rounds - 1)
    assert sum(gated.widths) == k * rounds == stats.served_scenarios


# ------------------------------------------------------------------- deadlines
def test_mixed_deadline_coalescing(engine9, dataset9):
    """A hopeless-deadline rider retires without touching its flush mates."""
    generous = _requests_from(dataset9, [3])[0]
    hopeless = _requests_from(dataset9, [2], start=3)[0]
    direct = engine9.serve_loads(*generous)

    async def run():
        async with AsyncServer(engine9, max_batch=8) as server:
            return await asyncio.gather(
                server.submit_loads(*generous, deadline_seconds=60.0),
                server.submit_loads(*hopeless, deadline_seconds=1e-7),
            )

    generous_sweep, hopeless_sweep = asyncio.run(run())
    assert all(o.timed_out for o in hopeless_sweep.outcomes)
    assert hopeless_sweep.n_scenarios == 2
    _assert_bitwise_equal_sweeps(generous_sweep, direct)


def test_row_deadline_gate_retires_only_expired_rows(case9_fixture):
    """Per-row gate: expired rows retire, survivors stay bitwise identical."""
    scenarios = generate_scenarios(case9_fixture, 6, seed=3, contingency_fraction=0.5)
    with SolverFleet(case9_fixture) as fleet:
        baseline = fleet.solve(scenarios)
        past = time.monotonic() - 1.0
        per_row = np.array([past, np.inf, past, np.inf, np.inf, past])
        gated = fleet.solve(scenarios, deadline=per_row)
    assert [o.scenario_id for o in gated.outcomes] == [o.scenario_id for o in baseline.outcomes]
    for deadline, base, out in zip(per_row, baseline.outcomes, gated.outcomes):
        if np.isfinite(deadline):
            assert out.timed_out and not out.success
            assert out.error == "wall deadline exceeded"
        else:
            _assert_bitwise_equal_outcomes(base, out)


def test_all_rows_expired_retires_whole_task(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 3, seed=4)
    with SolverFleet(case9_fixture) as fleet:
        gated = fleet.solve(scenarios, deadline=time.monotonic() - 1.0)
    assert all(o.timed_out for o in gated.outcomes)
    assert gated.n_scenarios == 3


def test_per_scenario_deadline_validation(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 3, seed=5)
    with SolverFleet(case9_fixture) as fleet:
        with pytest.raises(ValueError, match="one entry per scenario"):
            fleet.solve(scenarios, deadline=[np.inf, np.inf])
        # nan/inf entries mean unbounded — including the all-unbounded vector.
        sweep = fleet.solve(scenarios, deadline=[np.nan, np.inf, np.nan])
        assert not any(o.timed_out for o in sweep.outcomes)
        # -inf has already passed: only that row retires.
        sweep = fleet.solve(scenarios, deadline=[np.inf, -np.inf, np.nan])
        assert [o.timed_out for o in sweep.outcomes] == [False, True, False]


# ---------------------------------------------------------------- backpressure
def test_oversized_request_rejected_deterministically(engine9, dataset9):
    """A request wider than max_queue is rejected on an empty queue, typed."""
    Pd, Qd = _requests_from(dataset9, [3])[0]

    async def run():
        async with AsyncServer(engine9, max_queue=2) as server:
            with pytest.raises(OverloadedError):
                await server.submit_loads(Pd, Qd)
            rejected = server.stats.rejected_requests
            # The server stays healthy: a fitting request is still served.
            sweep = await server.submit_loads(Pd[:2], Qd[:2])
            return rejected, server.stats.rejected_requests, sweep

    rejected_before, rejected_after, sweep = asyncio.run(run())
    assert rejected_before == 1 and rejected_after == 1
    assert sweep.n_scenarios == 2


def test_backlog_overflow_rejects_latest_request(engine9, dataset9):
    """Admissions in one event-loop tick fill the queue in order; the request
    that would overflow it is the one rejected."""
    requests = _requests_from(dataset9, [2, 2, 2])

    async def run():
        async with AsyncServer(engine9, max_batch=4, max_queue=4) as server:
            tasks = [
                asyncio.create_task(server.submit_loads(Pd, Qd))
                for Pd, Qd in requests
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

    first, second, third = asyncio.run(run())
    assert first.n_scenarios == 2 and second.n_scenarios == 2
    assert isinstance(third, OverloadedError)


def test_all_cancelled_flush_is_tolerated(engine9, dataset9):
    """Cancelling every rider of a pending flush must not wedge the batcher."""
    Pd, Qd = _requests_from(dataset9, [2])[0]

    async def run():
        async with AsyncServer(engine9, max_batch=8) as server:
            doomed = [
                asyncio.create_task(server.submit_loads(Pd, Qd)) for _ in range(2)
            ]
            await asyncio.sleep(0)  # let the admissions land
            for task in doomed:
                task.cancel()
            while server.stats.flushes == 0:  # the empty flush fires and is skipped
                await asyncio.sleep(0)
            skipped_scenarios = server.stats.served_scenarios
            sweep = await server.submit_loads(Pd, Qd)
            return skipped_scenarios, sweep, server.stats

    skipped_scenarios, sweep, stats = asyncio.run(run())
    assert skipped_scenarios == 0  # nothing reached the engine
    assert sweep.n_scenarios == 2 and stats.served_scenarios == 2
    assert stats.flushes == 2


# ------------------------------------------------------------------- lifecycle
def test_empty_request_is_served_inline(engine9):
    async def run():
        async with AsyncServer(engine9) as server:
            a = await server.submit([])
            b = await server.submit_loads(np.empty((0,)), np.empty((0,)))
            return a, b, server.stats

    a, b, stats = asyncio.run(run())
    assert a.n_scenarios == 0 and b.n_scenarios == 0
    assert a.model_generation == engine9.generation
    assert stats.admitted_requests == 0  # inline, never queued


def test_submit_requires_running_server(engine9, dataset9):
    Pd, Qd = _requests_from(dataset9, [1])[0]
    server = AsyncServer(engine9)

    async def run():
        with pytest.raises(RuntimeError, match="not running"):
            await server.submit_loads(Pd, Qd)

    asyncio.run(run())


def test_stop_drains_admitted_backlog(engine9, dataset9):
    """Requests admitted before stop() are flushed, not abandoned.

    The request is parked behind an in-flight flush, so it is still queued
    when the stop sentinel lands behind it.
    """
    first, parked = _requests_from(dataset9, [1, 2])
    gated = _GatedEngine(engine9)

    async def run():
        server = await AsyncServer(gated, max_batch=8).start()
        try:
            head = asyncio.create_task(server.submit_loads(*first))
            await gated.wait_entered()
            task = asyncio.create_task(server.submit_loads(*parked))
            await asyncio.sleep(0)  # admitted, queued behind the gated flush
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0)  # the stop sentinel is queued behind it
        finally:
            gated.release.set()
        await stopping
        return await head, await task, server.stats

    head, sweep, stats = asyncio.run(run())
    assert head.n_scenarios == 1 and sweep.n_scenarios == 2
    assert stats.flushes == 2 and gated.widths == [1, 2]


def test_server_constructor_validation(engine9):
    with pytest.raises(ValueError):
        AsyncServer(engine9, max_batch=0)
    with pytest.raises(ValueError):
        AsyncServer(engine9, max_queue=0)

    async def run():
        async with AsyncServer(engine9) as server:
            with pytest.raises(ValueError, match="deadline_seconds"):
                await server.submit(
                    [Scenario(0, np.zeros(9), np.zeros(9))], deadline_seconds=0.0
                )

    asyncio.run(run())


@pytest.mark.parametrize("n_workers", [0, -1])
def test_server_rejects_non_positive_worker_count(engine9, n_workers):
    # Rejected at construction, not by every flush's future.
    with pytest.raises(ValueError, match="n_workers must be positive"):
        AsyncServer(engine9, n_workers=n_workers)


def test_submit_rejects_nan_deadline(engine9):
    """A NaN budget is not an unbounded one: the call fails, nothing is queued."""

    async def run():
        async with AsyncServer(engine9) as server:
            with pytest.raises(ValueError, match="deadline_seconds must be positive"):
                await server.submit(
                    [Scenario(0, np.zeros(9), np.zeros(9))], deadline_seconds=float("nan")
                )
            return server.stats

    stats = asyncio.run(run())
    assert stats.admitted_requests == 0 and stats.flushes == 0


def test_scenario_ids_and_order_preserved(engine9, case9_fixture):
    """Original (non-contiguous) scenario ids survive the renumbering."""
    base = generate_scenarios(case9_fixture, 4, seed=9)
    rows = [
        Scenario(17, base[0].Pd, base[0].Qd),
        Scenario(5, base[1].Pd, base[1].Qd),
    ]
    direct = engine9.serve(ScenarioSet(case9_fixture.name, rows))

    async def run():
        async with AsyncServer(engine9) as server:
            return await server.submit(rows)

    sweep = asyncio.run(run())
    assert [o.scenario_id for o in sweep.outcomes] == [5, 17]
    _assert_bitwise_equal_sweeps(sweep, direct)
