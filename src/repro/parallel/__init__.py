"""Parallel scenario sweeps, the solver fleet and the multi-worker scaling model."""

from repro.parallel.cluster import PAPER_WORKER_COUNTS, ClusterModel
from repro.parallel.pool import ScenarioOutcome, SolverFleet, SweepResult
from repro.parallel.scenarios import (
    Scenario,
    ScenarioSet,
    generate_contingency_set,
    generate_scenarios,
    outage_keeps_connected,
    screened_outage_sets,
    validate_outage_branches,
)
from repro.parallel.supervision import PoolClosedError, SupervisedPool

__all__ = [
    "Scenario",
    "ScenarioSet",
    "generate_scenarios",
    "generate_contingency_set",
    "outage_keeps_connected",
    "screened_outage_sets",
    "validate_outage_branches",
    "ScenarioOutcome",
    "SolverFleet",
    "SweepResult",
    "ClusterModel",
    "PAPER_WORKER_COUNTS",
    "PoolClosedError",
    "SupervisedPool",
]
