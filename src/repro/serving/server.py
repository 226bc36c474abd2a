"""Asyncio serving front-end with a continuous batcher.

:class:`AsyncServer` turns the blocking :class:`~repro.engine.engine.WarmStartEngine`
library call into a concurrent request/response service.  Clients submit
load-profile requests — each with its own wall-clock budget — and await a
per-request :class:`~repro.parallel.pool.SweepResult`; between the two sits a
**continuous batcher** that coalesces concurrent requests into one batched MTL
inference plus one lockstep ``mips_batch`` solve, then splits the
per-scenario outcomes back onto per-request futures.

A flush fires whenever the executor is free and the queue is non-empty.  It
takes every request already queued, whole requests in arrival order, until
``max_batch`` scenarios are collected, and dispatches at once — no timer.
While one flush solves, new requests queue up, and that backlog rides the
next flush together.  An idle server therefore answers a lone request
immediately, and a loaded one widens its flushes by itself (the
dispatch-when-free rule of Clipper's adaptive batching, Crankshaw et al.,
NSDI 2017).  Per-request deadlines need no batcher rule either: each
request's deadline travels with its rows into the solver, which retires
expired rows between iterations.

Requests are atomic: the batcher never splits one request across flushes
(a request wider than ``max_batch`` simply flushes alone).  Backpressure is a
bounded admission queue counted in *scenarios*; a submit that would exceed
``max_queue`` is rejected immediately with :class:`OverloadedError` instead of
building an unbounded backlog.

Results are deterministic by construction.  Engine inference is bitwise
row-deterministic (single-row flushes are padded onto the batched BLAS path)
and lockstep solves are row-independent bit for bit, so a request's outcomes
are bitwise identical whether it was served alone through
:meth:`WarmStartEngine.serve` or coalesced with arbitrary neighbours — the
batcher invariance the test suite pins.

The engine call runs on a dedicated single-thread executor: one flush is in
flight at a time (the engine's fleet and OPF model are not thread-safe), and
the event loop stays free to accept and queue the next wave of requests
while the current flush solves.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.engine import WarmStartEngine
from repro.parallel.pool import SweepResult
from repro.parallel.scenarios import Scenario, ScenarioSet


class OverloadedError(RuntimeError):
    """Admission would exceed the server's bounded queue; retry later.

    Raised synchronously at submit time (never after queueing), so a rejected
    request costs the client nothing but the exception.
    """


@dataclass
class ServerStats:
    """Liveness counters of one :class:`AsyncServer` (not request telemetry)."""

    #: Requests admitted to the batcher queue.
    admitted_requests: int = 0
    #: Requests rejected with :class:`OverloadedError`.
    rejected_requests: int = 0
    #: Batched engine dispatches (flushes) executed, including degenerate
    #: all-cancelled flushes that skipped the engine.
    flushes: int = 0
    #: Scenarios solved across all flushes.
    served_scenarios: int = 0
    #: Scenario count of the widest flush so far.
    widest_flush: int = 0


@dataclass
class _PendingRequest:
    """One admitted request waiting for (or riding in) a flush."""

    scenarios: List[Scenario]
    #: Absolute ``time.monotonic()`` deadline (``inf`` = unbounded).
    deadline: float
    future: "asyncio.Future[SweepResult]"


#: Queue sentinel that tells the batcher loop to drain and exit.
_STOP = object()


class AsyncServer:
    """Continuous-batching front-end over a :class:`WarmStartEngine`.

    A flush fires whenever the executor is free and the queue is non-empty;
    it carries every queued request up to ``max_batch`` scenarios.

    Use as an async context manager (or call :meth:`start` / :meth:`stop`)::

        async with AsyncServer(engine, max_batch=16) as server:
            sweep = await server.submit_loads(Pd, Qd, deadline_seconds=0.5)

    Parameters
    ----------
    engine:
        The warm-start engine every flush is served by; coalescing pays
        because the flush becomes one lockstep window.
    n_workers:
        Fleet width handed to :meth:`WarmStartEngine.serve` per flush.
    max_batch:
        The only width control: a flush stops taking queued requests once
        it holds this many scenarios.  One request is never split, so the
        request that crosses the bound still rides, and a single wider
        request flushes alone.
    max_queue:
        Admission bound, counted in queued (not yet flushed) scenarios.
        A submit that would push the backlog past this bound raises
        :class:`OverloadedError`.  Must be at least as large as the widest
        request you intend to accept.
    """

    def __init__(
        self,
        engine: WarmStartEngine,
        n_workers: int = 1,
        max_batch: int = 16,
        max_queue: int = 1024,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.engine = engine
        self.n_workers = n_workers
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.stats = ServerStats()
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Scenarios admitted but not yet taken into a flush (the backlog the
        #: admission bound is checked against).
        self._queued_scenarios = 0

    # ---------------------------------------------------------------- lifecycle
    async def start(self) -> "AsyncServer":
        """Start the batcher loop (idempotent)."""
        if self._batcher is None:
            self._queue = asyncio.Queue()
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serving-flush"
            )
            self._batcher = asyncio.create_task(self._batch_loop(), name="serving-batcher")
        return self

    async def stop(self) -> None:
        """Flush the backlog, stop the batcher and release the executor."""
        if self._batcher is None:
            return
        self._queue.put_nowait(_STOP)
        await self._batcher
        self._batcher = None
        self._queue = None
        self._executor.shutdown(wait=True)
        self._executor = None

    async def __aenter__(self) -> "AsyncServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # --------------------------------------------------------------- submission
    def _admit(
        self, scenarios: List[Scenario], deadline_seconds: Optional[float]
    ) -> _PendingRequest:
        if self._queue is None:
            raise RuntimeError("server is not running (use 'async with' or start())")
        if deadline_seconds is not None and not deadline_seconds > 0:
            # ``not > 0`` also rejects NaN, which would otherwise pass as unbounded.
            raise ValueError("deadline_seconds must be positive")
        if self._queued_scenarios + len(scenarios) > self.max_queue:
            self.stats.rejected_requests += 1
            raise OverloadedError(
                f"admission queue full ({self._queued_scenarios} queued scenarios, "
                f"request of {len(scenarios)} exceeds max_queue={self.max_queue})"
            )
        deadline = (
            float("inf")
            if deadline_seconds is None
            else time.monotonic() + float(deadline_seconds)
        )
        request = _PendingRequest(
            scenarios=scenarios,
            deadline=deadline,
            future=asyncio.get_running_loop().create_future(),
        )
        self._queued_scenarios += len(scenarios)
        self.stats.admitted_requests += 1
        self._queue.put_nowait(request)
        return request

    async def submit(
        self,
        scenarios: Union[ScenarioSet, Sequence[Scenario]],
        deadline_seconds: Optional[float] = None,
    ) -> SweepResult:
        """Serve one request of scenarios; resolves to its own sweep result.

        ``deadline_seconds`` is this request's wall budget, measured from
        submission — it covers queueing *and* solving, so scenarios still
        unsolved when it expires retire as ``timed_out`` outcomes.  The
        returned sweep contains exactly this request's outcomes (original
        scenario ids preserved, sorted by id), stamped with the model
        generation that served its flush.

        Raises :class:`OverloadedError` when admission would exceed
        ``max_queue``.  An empty request is served inline (no queueing).
        """
        rows = list(scenarios)
        if not rows:
            return self.engine.serve(
                ScenarioSet(self.engine.case.name, [], n_bus=self.engine.case.n_bus),
                n_workers=self.n_workers,
            )
        request = self._admit(rows, deadline_seconds)
        return await request.future

    async def submit_loads(
        self,
        Pd_mw: np.ndarray,
        Qd_mvar: np.ndarray,
        deadline_seconds: Optional[float] = None,
    ) -> SweepResult:
        """Serve raw per-bus load matrices (one row per scenario, MW/MVAr)."""
        Pd_mw = np.asarray(Pd_mw, dtype=float)
        Qd_mvar = np.asarray(Qd_mvar, dtype=float)
        if Pd_mw.size == 0 and Qd_mvar.size == 0:
            return await self.submit([], deadline_seconds=deadline_seconds)
        Pd_mw = np.atleast_2d(Pd_mw)
        Qd_mvar = np.atleast_2d(Qd_mvar)
        if Pd_mw.shape != Qd_mvar.shape:
            raise ValueError("Pd_mw and Qd_mvar must have matching shapes")
        rows = [Scenario(i, Pd_mw[i], Qd_mvar[i]) for i in range(Pd_mw.shape[0])]
        return await self.submit(rows, deadline_seconds=deadline_seconds)

    # ------------------------------------------------------------------ batcher
    async def _batch_loop(self) -> None:
        """Flush the queued backlog whenever the executor is free.

        The loop parks only while the queue is empty.  Once a request is in
        hand it takes every request already queued behind it and flushes at
        once.  After the stop sentinel it keeps flushing until the queue is
        empty, so no admitted future is left dangling.
        """
        stopping = False
        while not (stopping and self._queue.empty()):
            item = self._queue.get_nowait() if stopping else await self._queue.get()
            pending: List[_PendingRequest] = []
            n_scenarios = 0
            while True:
                if item is _STOP:
                    stopping = True
                else:
                    pending.append(item)
                    n_scenarios += len(item.scenarios)
                if n_scenarios >= self.max_batch or self._queue.empty():
                    break
                item = self._queue.get_nowait()
            if pending:
                self._queued_scenarios -= n_scenarios
                await self._flush(pending)

    async def _flush(self, pending: List[_PendingRequest]) -> None:
        """Serve one coalesced flush and resolve its per-request futures."""
        self.stats.flushes += 1
        live = [request for request in pending if not request.future.cancelled()]
        if not live:
            # Every rider was cancelled while queued — nothing to solve, and
            # nothing to resolve.  (The all-cancelled flush must be tolerated,
            # not sent to the engine as an empty sweep.)
            return

        combined: List[Scenario] = []
        deadlines: List[float] = []
        slices: List[Tuple[_PendingRequest, int, int]] = []
        for request in live:
            start = len(combined)
            for scenario in request.scenarios:
                # Renumber onto flush-global positions: sweeps sort outcomes
                # by scenario id, so position ids make the per-request split a
                # contiguous slice.  Original ids are restored on the way out.
                combined.append(replace(scenario, scenario_id=len(combined)))
                deadlines.append(request.deadline)
            slices.append((request, start, len(combined)))
        self.stats.served_scenarios += len(combined)
        self.stats.widest_flush = max(self.stats.widest_flush, len(combined))

        deadline_vec = None
        if any(np.isfinite(deadline) for deadline in deadlines):
            deadline_vec = np.asarray(deadlines, dtype=float)
        scenario_set = ScenarioSet(
            self.engine.case.name, combined, n_bus=self.engine.case.n_bus
        )
        loop = asyncio.get_running_loop()
        try:
            sweep = await loop.run_in_executor(
                self._executor,
                lambda: self.engine.serve(
                    scenario_set, n_workers=self.n_workers, deadline=deadline_vec
                ),
            )
        except Exception as exc:  # noqa: BLE001 - fault barrier onto futures
            for request in live:
                if not request.future.cancelled():
                    request.future.set_exception(exc)
            return

        outcome_by_id: Dict[int, object] = {o.scenario_id: o for o in sweep.outcomes}
        for request, start, stop in slices:
            if request.future.cancelled():
                continue
            restored = [
                replace(outcome_by_id[position], scenario_id=original.scenario_id)
                for position, original in zip(range(start, stop), request.scenarios)
            ]
            restored.sort(key=lambda o: o.scenario_id)
            result = SweepResult(
                case_name=sweep.case_name,
                n_workers=sweep.n_workers,
                wall_seconds=sweep.wall_seconds,
                errors=sweep.errors,
                retries=sweep.retries,
                quarantined=sweep.quarantined,
                model_generation=sweep.model_generation,
            )
            result.outcomes.extend(restored)
            request.future.set_result(result)
