"""Deterministic fault injection for the fault-tolerant serving runtime.

Recovery code that is never exercised is recovery code that does not work.
This module provides a *deterministic, seedable* fault-injection registry the
solver fleet consults from inside its workers, so chaos scenarios — a worker
killed mid-sweep, a solver raising on one scenario, a solve stalling past its
deadline, an artifact corrupted on disk — are reproducible unit tests rather
than hopes about production behaviour.

A :class:`FaultPlan` is a frozen, picklable bundle of :class:`FaultSpec`
triggers that ships to spawn workers through the fleet initializer (with
the case and solver options).  Triggers are keyed on *scenario id* and *attempt
number* — the attempt is carried in the task message, so a fault can be
transient ("crash the first attempt, let the retry succeed") or persistent
("crash every attempt until supervision quarantines the culprit") without
any cross-process mutable state.  The one worker-local trigger,
``kill_at_task``, counts tasks processed by each worker process.  A fault
acts the moment it trips; the one sleep in this module is the stall a
``stall_solve`` asks for.

Fault kinds
-----------

* ``kill_worker`` — terminate the worker process without cleanup
  (``os._exit``, at once), the closest deterministic stand-in for an OOM
  kill or segfault.  The supervisor sent the task to that worker itself, so
  the crash is charged to the right task however fast the worker dies.  In
  the in-process fleet it raises :class:`WorkerCrashError` instead, which
  the dispatcher treats exactly like a dead worker.
* ``kill_at_task`` — kill the worker when its per-process task counter
  reaches ``task_index`` (worker-local, for soak-style tests).
* ``raise_in_solver`` — raise :class:`FaultInjectionError` in the worker's
  solve path (a typed stand-in for an unexpected solver exception).
* ``stall_solve`` — sleep ``seconds`` before solving, so a cooperative
  deadline expires (a hung factorisation stand-in).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjectionError",
    "WorkerCrashError",
    "kill_worker",
    "kill_at_task",
    "raise_in_solver",
    "stall_solve",
]

#: Valid fault kinds.
FAULT_KINDS = ("kill_worker", "kill_at_task", "raise_in_solver", "stall_solve")

#: Exit code used by injected worker kills (visible in crash diagnostics).
KILL_EXIT_CODE = 57


class FaultInjectionError(RuntimeError):
    """Raised inside a worker by a ``raise_in_solver`` fault."""


class WorkerCrashError(RuntimeError):
    """In-process stand-in for a killed worker (no subprocess to kill)."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault trigger.

    ``scenario_id`` selects the scenario whose task trips the fault (ignored
    by ``kill_at_task``).  The fault fires on attempts in
    ``[first_attempt, last_attempt]`` of the *task* carrying the scenario;
    ``last_attempt=None`` means every attempt (a persistent fault that forces
    bisection and quarantine), ``last_attempt=0`` a transient fault absorbed
    by one retry.
    """

    kind: str
    scenario_id: Optional[int] = None
    task_index: Optional[int] = None
    first_attempt: int = 0
    last_attempt: Optional[int] = None
    seconds: float = 0.0
    message: str = "injected solver fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.kind == "kill_at_task":
            if self.task_index is None or self.task_index < 0:
                raise ValueError("kill_at_task requires a non-negative task_index")
        elif self.scenario_id is None:
            raise ValueError(f"{self.kind} requires a scenario_id")
        if self.first_attempt < 0:
            raise ValueError("first_attempt must be non-negative")
        if self.last_attempt is not None and self.last_attempt < self.first_attempt:
            raise ValueError("last_attempt must be >= first_attempt")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")

    def applies(self, scenario_id: int, attempt: int) -> bool:
        """True when this (scenario-keyed) spec fires for ``attempt``."""
        if self.kind == "kill_at_task" or self.scenario_id != scenario_id:
            return False
        if attempt < self.first_attempt:
            return False
        return self.last_attempt is None or attempt <= self.last_attempt


@dataclass(frozen=True)
class FaultPlan:
    """A picklable bundle of fault triggers consulted by fleet workers.

    Empty plans are inert; :meth:`none` (or simply ``None`` at the fleet API)
    is the production configuration.  All lookups are pure functions of the
    task message (scenario ids + attempt number), so a plan behaves
    identically no matter which worker, schedule or retry executes the task.
    """

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def _matching(self, kind: str, scenario_ids: Iterable[int], attempt: int):
        for spec in self.specs:
            if spec.kind != kind:
                continue
            for sid in scenario_ids:
                if spec.applies(sid, attempt):
                    yield spec
                    break

    def kill_for(self, scenario_ids: Sequence[int], attempt: int) -> Optional[FaultSpec]:
        """The kill spec tripped by a task over ``scenario_ids``, if any."""
        return next(self._matching("kill_worker", scenario_ids, attempt), None)

    def raise_for(self, scenario_ids: Sequence[int], attempt: int) -> Optional[FaultSpec]:
        """The raise spec tripped by a task over ``scenario_ids``, if any."""
        return next(self._matching("raise_in_solver", scenario_ids, attempt), None)

    def stall_seconds(self, scenario_ids: Sequence[int], attempt: int) -> float:
        """Total injected stall for a task over ``scenario_ids`` (0.0 = none)."""
        return float(
            sum(spec.seconds for spec in self._matching("stall_solve", scenario_ids, attempt))
        )

    def kill_at_task_index(self, task_count: int) -> bool:
        """True when a worker that has processed ``task_count`` tasks must die."""
        return any(
            spec.kind == "kill_at_task" and spec.task_index == task_count
            for spec in self.specs
        )


# ------------------------------------------------------------- spec builders
def kill_worker(
    scenario_id: int, first_attempt: int = 0, last_attempt: Optional[int] = None
) -> FaultSpec:
    """Kill the worker processing ``scenario_id`` on the given attempts."""
    return FaultSpec(
        kind="kill_worker",
        scenario_id=scenario_id,
        first_attempt=first_attempt,
        last_attempt=last_attempt,
    )


def kill_at_task(task_index: int) -> FaultSpec:
    """Kill a worker when its per-process task counter reaches ``task_index``."""
    return FaultSpec(kind="kill_at_task", task_index=task_index)


def raise_in_solver(
    scenario_id: int,
    first_attempt: int = 0,
    last_attempt: Optional[int] = None,
    message: str = "injected solver fault",
) -> FaultSpec:
    """Raise :class:`FaultInjectionError` in the task solving ``scenario_id``."""
    return FaultSpec(
        kind="raise_in_solver",
        scenario_id=scenario_id,
        first_attempt=first_attempt,
        last_attempt=last_attempt,
        message=message,
    )


def stall_solve(
    scenario_id: int,
    seconds: float,
    first_attempt: int = 0,
    last_attempt: Optional[int] = None,
) -> FaultSpec:
    """Sleep ``seconds`` before solving the task carrying ``scenario_id``."""
    return FaultSpec(
        kind="stall_solve",
        scenario_id=scenario_id,
        first_attempt=first_attempt,
        last_attempt=last_attempt,
        seconds=seconds,
    )


# -------------------------------------------------------------- worker hooks
def execute_kill(in_subprocess: bool) -> None:
    """Carry out a tripped kill fault.

    Spawn workers die like a SIGKILL'd process (``os._exit`` — no cleanup, no
    exception propagation); the in-process fleet raises
    :class:`WorkerCrashError`, which its dispatcher handles through the same
    crash-retry path a dead subprocess takes.
    """
    if in_subprocess:
        os._exit(KILL_EXIT_CODE)
    raise WorkerCrashError("injected worker kill (in-process)")
