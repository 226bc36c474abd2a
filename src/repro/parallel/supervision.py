"""Supervised worker processes: one pipe per worker, parent-assigned tasks.

``multiprocessing.Pool`` cannot serve a fault-tolerant fleet: a worker that
dies mid-task (OOM kill, segfault, injected chaos) leaves ``map`` /
``imap_unordered`` waiting forever on a task nobody will finish, and the pool
offers no way to learn *which* task died with the worker.  This module
replaces it with a small supervisor in which the parent, not the workers,
decides who runs what:

* every worker talks to the parent over its own duplex pipe.  It runs the
  initializer, reports ``ready``, then loops: receive a task, run it, reply
  ``done`` (the return value) or ``error`` (message + exception type — never
  a pickled traceback object, which may not unpickle) and stay alive;
* the parent keeps submitted tasks in a FIFO and sends the next one to a slot
  only when that slot is ready and idle, so each task is sent exactly once
  and the parent always knows which task each slot holds;
* :meth:`SupervisedPool.next_event` blocks on the pipes and the process
  sentinels together.  A reply already in a pipe is read before its
  worker's death is acted on; a dead slot is respawned and the task it held
  comes back as a ``crash`` event.  A worker that dies before it reports
  ready (its initializer failed) is not respawned: ``next_event`` raises
  ``RuntimeError`` naming the slot and the exit code.

There is no timer anywhere: no poll interval, no grace period, no
resubmission.  A task cannot be lost or finished twice, so nothing needs to
detect either.

The supervisor is policy-free: retries, bisection and quarantine live in the
fleet dispatcher (:mod:`repro.parallel.pool`), which consumes the
``done`` / ``error`` / ``crash`` event stream this class produces.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.utils.logging import get_logger

LOGGER = get_logger("parallel")

__all__ = ["SupervisedPool", "PoolClosedError", "TaskEvent"]

#: Event tuple: ``(kind, task_id, payload)`` where kind is ``"done"``
#: (payload = task return value), ``"error"`` (payload = description string)
#: or ``"crash"`` (payload = description string).
TaskEvent = Tuple[str, int, Any]


class PoolClosedError(RuntimeError):
    """The supervised pool was terminated while events were outstanding."""


def _supervised_worker(conn, initializer: Optional[Callable], initargs: tuple) -> None:
    """Worker main loop: initialise, report ready, then run tasks until EOF."""
    if initializer is not None:
        initializer(*initargs)
    conn.send(("ready", None))
    while True:
        try:
            fn, payload = conn.recv()
        except EOFError:
            return
        try:
            reply = ("done", fn(payload))
        except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)


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
        self._procs: List[Any] = [None] * n_workers
        self._conns: List[Any] = [None] * n_workers
        self._ready = [False] * n_workers
        #: The task id each slot is running (``None`` = idle).
        self._running: List[Optional[int]] = [None] * n_workers
        #: Submitted tasks no slot has been sent yet, in submission order.
        self._queue: Deque[Tuple[int, Callable, Any]] = deque()
        self._next_task_id = 0
        self._respawns = 0
        self._closed = False
        #: Orders spawns against a terminate() from another thread, so no
        #: worker is started after the pool has killed the others.
        self._lock = threading.Lock()
        for slot in range(n_workers):
            self._spawn(slot)

    # ------------------------------------------------------------- lifecycle
    def _spawn(self, slot: int) -> None:
        with self._lock:
            if self._closed:
                raise PoolClosedError("pool was terminated with tasks in flight")
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_supervised_worker,
                args=(child_conn, self._initializer, self._initargs),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs[slot] = proc
            self._conns[slot] = parent_conn
            self._ready[slot] = False
            self._running[slot] = None

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    @property
    def processes(self) -> List[mp.process.BaseProcess]:
        """Worker process handles, one per slot (for liveness assertions in tests)."""
        return list(self._procs)

    @property
    def respawns(self) -> int:
        """Number of workers respawned after dying."""
        return self._respawns

    def terminate(self) -> None:
        """Kill every worker and close its pipe (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for proc in self._procs:
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()

    # ------------------------------------------------------------ submission
    def submit(self, fn: Callable, payload: Any) -> int:
        """Queue ``fn(payload)`` for execution; returns the task id."""
        if self._closed:
            raise PoolClosedError("pool is closed")
        task_id = self._next_task_id
        self._next_task_id += 1
        self._queue.append((task_id, fn, payload))
        return task_id

    def _assign(self) -> None:
        """Send queued tasks, oldest first, to ready idle slots in slot order."""
        for slot, proc in enumerate(self._procs):
            if not self._queue:
                return
            # A dead idle slot gets no task: its sentinel respawns it, and no
            # task is charged with a crash it had no part in.
            if not self._ready[slot] or self._running[slot] is not None or not proc.is_alive():
                continue
            task_id, fn, payload = self._queue.popleft()
            try:
                self._conns[slot].send((fn, payload))
            except OSError:
                # The worker died under the send; its sentinel reports the
                # crash of the task it now holds.
                pass
            self._running[slot] = task_id

    # ------------------------------------------------------------ event loop
    def _bury(self, slot: int) -> Optional[TaskEvent]:
        """Respawn a dead slot; the task it held comes back as a crash."""
        proc, task_id = self._procs[slot], self._running[slot]
        proc.join()
        if self._closed:
            raise PoolClosedError("pool was terminated with tasks in flight")
        if not self._ready[slot]:
            raise RuntimeError(
                f"worker slot {slot} exited with code {proc.exitcode} before it was ready"
            )
        self._conns[slot].close()
        self._respawns += 1
        self._spawn(slot)
        LOGGER.warning(
            "worker slot %d died (exit code %s, task %s); respawned", slot, proc.exitcode, task_id
        )
        if task_id is None:
            return None
        return ("crash", task_id, f"worker died (exit code {proc.exitcode}) while running task {task_id}")

    def next_event(self) -> TaskEvent:
        """Block until the next ``done`` / ``error`` / ``crash`` event.

        Raises :class:`PoolClosedError` if the pool is terminated while
        waiting, ``RuntimeError`` when called with no outstanding tasks or
        when a worker dies before it is ready.
        """
        while True:
            if self._closed:
                raise PoolClosedError("pool was terminated with tasks in flight")
            if not self._queue and all(task_id is None for task_id in self._running):
                raise RuntimeError("no outstanding tasks")
            self._assign()
            try:
                ready = wait([*self._conns, *(proc.sentinel for proc in self._procs)])
            except (OSError, ValueError):
                # A concurrent terminate() closed a pipe under the wait.
                if not self._closed:
                    raise
                continue
            for slot in range(self.n_workers):
                conn, proc = self._conns[slot], self._procs[slot]
                dead = proc.sentinel in ready
                if conn in ready:
                    try:
                        kind, value = conn.recv()
                    except (EOFError, OSError):
                        dead = True
                    else:
                        if kind == "ready":
                            self._ready[slot] = True
                            continue
                        task_id = self._running[slot]
                        self._running[slot] = None
                        self._assign()
                        return (kind, task_id, value)
                if dead:
                    event = self._bury(slot)
                    if event is not None:
                        return event

    # -------------------------------------------------------------- contexts
    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()
