"""Supervised worker processes: crash detection, attribution and respawn.

``multiprocessing.Pool`` cannot serve a fault-tolerant fleet: a worker that
dies mid-task (OOM kill, segfault, injected chaos) leaves ``map`` /
``imap_unordered`` waiting forever on a task nobody will finish, and the pool
offers no way to learn *which* task died with the worker.  This module
replaces it with a small, explicit supervisor built for exactly that failure
mode:

* every worker announces the task it picks up over a dedicated OS pipe
  **before** running it (a synchronous write, unlike the result queue's
  feeder thread), so a crash is attributed to its in-flight task exactly;
* the parent event loop polls worker liveness whenever the result queue is
  quiet — a dead worker yields a ``crash`` event for its running task and is
  respawned into the same slot immediately;
* a task consumed from the queue by a worker that died before announcing it
  (a narrow race) is recovered by the lost-task watchdog: when every worker
  sits idle, the queue is drained and unstarted submissions exist, they are
  resubmitted.  Duplicate completions (possible after resubmission) are
  dropped by the parent, which is safe because fleet tasks are deterministic;
* worker exceptions travel back as ``error`` events (message + exception type
  — never a pickled traceback object, which may not unpickle), leaving the
  worker alive for the next task.

The supervisor is policy-free: retries, bisection and quarantine live in the
fleet dispatcher (:mod:`repro.parallel.pool`), which consumes the
``done`` / ``error`` / ``crash`` event stream this class produces.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.utils.logging import get_logger

LOGGER = get_logger("parallel")

__all__ = ["SupervisedPool", "PoolClosedError", "TaskEvent"]

#: Event tuple: ``(kind, task_id, payload)`` where kind is ``"done"``
#: (payload = task return value), ``"error"`` (payload = description string)
#: or ``"crash"`` (payload = description string).
TaskEvent = Tuple[str, int, Any]

#: Seconds :meth:`SupervisedPool.next_event` waits on a quiet result queue
#: before it checks worker liveness.
_POLL_SECONDS = 0.05
#: Seconds without progress, every worker idle, before unstarted tasks are
#: presumed lost and resubmitted.
_LOST_TASK_GRACE_SECONDS = 2.0


class PoolClosedError(RuntimeError):
    """The supervised pool was terminated while events were outstanding."""


def _supervised_worker(
    slot: int,
    task_queue,
    result_queue,
    start_conn,
    initializer: Optional[Callable],
    initargs: tuple,
) -> None:
    """Worker main loop: announce, run, report; repeat until sentinel."""
    if initializer is not None:
        initializer(*initargs)
    while True:
        item = task_queue.get()
        if item is None:
            return
        task_id, fn, payload = item
        # Synchronous pipe write: guaranteed visible to the parent before the
        # task function can bring the process down.
        start_conn.send(task_id)
        try:
            value = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
            result_queue.put(
                ("error", slot, task_id, f"{type(exc).__name__}: {exc}")
            )
        else:
            result_queue.put(("done", slot, task_id, value))


class SupervisedPool:
    """A crash-supervised pool of persistent worker processes.

    Tasks are submitted with :meth:`submit` and consumed as events from
    :meth:`next_event`; the pool never blocks forever on a dead worker.
    Workers run ``initializer(*initargs)`` once per process (including
    respawns), exactly like a ``multiprocessing.Pool`` initializer.

    Not thread-safe except for :meth:`terminate`, which may be called from
    another thread to abort a dispatch in flight (the event loop then raises
    :class:`PoolClosedError`).
    """

    def __init__(
        self,
        n_workers: int,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        self._ctx = mp.get_context("spawn")
        self._initializer = initializer
        self._initargs = initargs
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * n_workers
        self._start_conns: List[Any] = [None] * n_workers
        self._running: List[Optional[int]] = [None] * n_workers
        self._pending: Dict[int, Tuple[Callable, Any]] = {}
        self._started: set = set()
        self._finished: set = set()
        self._crash_backlog: List[TaskEvent] = []
        self._next_task_id = 0
        self._respawns = 0
        self._closed = False
        self._last_progress = time.monotonic()
        for slot in range(n_workers):
            self._spawn(slot)

    # ------------------------------------------------------------- lifecycle
    def _spawn(self, slot: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_supervised_worker,
            args=(
                slot,
                self._task_queue,
                self._result_queue,
                child_conn,
                self._initializer,
                self._initargs,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[slot] = proc
        self._start_conns[slot] = parent_conn
        self._running[slot] = None

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    @property
    def processes(self) -> List[mp.process.BaseProcess]:
        """Live worker process handles (for liveness assertions in tests)."""
        return [proc for proc in self._procs if proc is not None]

    @property
    def respawns(self) -> int:
        """Number of workers respawned after a crash."""
        return self._respawns

    def terminate(self) -> None:
        """Kill every worker and release queue resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=5.0)
        for conn in self._start_conns:
            if conn is not None:
                conn.close()
        for q in (self._task_queue, self._result_queue):
            q.close()
            # The queue feeder threads must not block interpreter exit on
            # unflushed task payloads of an aborted dispatch.
            q.cancel_join_thread()

    # ------------------------------------------------------------ submission
    def submit(self, fn: Callable, payload: Any) -> int:
        """Queue ``fn(payload)`` for execution; returns the task id."""
        if self._closed:
            raise PoolClosedError("pool is closed")
        task_id = self._next_task_id
        self._next_task_id += 1
        self._pending[task_id] = (fn, payload)
        self._task_queue.put((task_id, fn, payload))
        return task_id

    # ------------------------------------------------------------ event loop
    def _drain_start_notifications(self) -> None:
        for slot, conn in enumerate(self._start_conns):
            if conn is None:
                continue
            try:
                while conn.poll(0):
                    task_id = conn.recv()
                    self._running[slot] = task_id
                    self._started.add(task_id)
                    self._last_progress = time.monotonic()
            except (EOFError, OSError):
                # Connection torn down by a dead worker; liveness polling
                # handles the crash itself.
                continue

    def _reap_dead_workers(self) -> None:
        for slot, proc in enumerate(self._procs):
            if proc is None or proc.is_alive() or self._closed:
                continue
            # The worker may have announced a task right before dying.
            self._drain_start_notifications()
            task_id = self._running[slot]
            exitcode = proc.exitcode
            conn = self._start_conns[slot]
            if conn is not None:
                conn.close()
            self._respawns += 1
            self._spawn(slot)
            self._last_progress = time.monotonic()
            if task_id is not None and task_id in self._pending:
                del self._pending[task_id]
                self._crash_backlog.append(
                    (
                        "crash",
                        task_id,
                        f"worker died (exit code {exitcode}) while running task {task_id}",
                    )
                )
                LOGGER.warning(
                    "worker slot %d died (exit code %s) running task %d; respawned",
                    slot,
                    exitcode,
                    task_id,
                )
            else:
                LOGGER.warning(
                    "worker slot %d died (exit code %s) between tasks; respawned",
                    slot,
                    exitcode,
                )

    def _recover_lost_tasks(self) -> None:
        """Resubmit tasks consumed by a worker that died before announcing them."""
        if not self._pending or any(tid is not None for tid in self._running):
            return
        if time.monotonic() - self._last_progress < _LOST_TASK_GRACE_SECONDS:
            return
        try:
            queue_empty = self._task_queue.empty()
        except (OSError, ValueError):
            return
        if not queue_empty:
            return
        unstarted = [tid for tid in self._pending if tid not in self._started]
        for task_id in unstarted:
            fn, payload = self._pending[task_id]
            LOGGER.warning("resubmitting lost task %d", task_id)
            self._task_queue.put((task_id, fn, payload))
        self._last_progress = time.monotonic()

    def next_event(self) -> TaskEvent:
        """Block until the next ``done`` / ``error`` / ``crash`` event.

        Raises :class:`PoolClosedError` if the pool is terminated while
        waiting, and ``RuntimeError`` when called with no outstanding tasks.
        """
        while True:
            if self._crash_backlog:
                return self._crash_backlog.pop(0)
            if self._closed:
                raise PoolClosedError("pool was terminated with tasks in flight")
            if not self._pending:
                raise RuntimeError("no outstanding tasks")
            self._drain_start_notifications()
            try:
                msg = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                self._reap_dead_workers()
                self._recover_lost_tasks()
                continue
            kind, slot, task_id, payload = msg
            if self._running[slot] == task_id:
                self._running[slot] = None
            self._last_progress = time.monotonic()
            if task_id in self._finished or task_id not in self._pending:
                # Duplicate completion of a resubmitted lost task: tasks are
                # deterministic, so either copy of the result is the result.
                continue
            self._finished.add(task_id)
            del self._pending[task_id]
            return (kind, task_id, payload)

    # -------------------------------------------------------------- contexts
    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()
