"""Deterministic test harnesses for the serving runtime (fault injection)."""

from repro.testing.faults import (
    FAULT_KINDS,
    FaultInjectionError,
    FaultPlan,
    FaultSpec,
    WorkerCrashError,
    kill_at_task,
    kill_worker,
    raise_in_solver,
    stall_solve,
)

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
