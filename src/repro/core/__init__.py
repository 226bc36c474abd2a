"""Smart-PGSim framework: offline/online phases, metrics, sensitivity, baselines."""

from repro.core.baselines import DirectPredictionBaseline, DirectPredictionReport
from repro.core.breakdown import RuntimeBreakdown, breakdown_from_evaluation
from repro.core.convergence import ConvergenceTrace, capture_convergence_traces
from repro.core.framework import (
    OfflineArtifacts,
    SmartPGSim,
    SmartPGSimConfig,
)
from repro.core.metrics import (
    BoxStats,
    cost_loss,
    iteration_reduction,
    relative_error_summary,
    relative_errors,
    speedup_factor_sf,
    speedup_su,
    success_rate,
)
from repro.core.sensitivity import (
    COMBINATIONS,
    CombinationResult,
    SensitivityReport,
    run_sensitivity_study,
)

__all__ = [
    "SmartPGSim",
    "SmartPGSimConfig",
    "OfflineArtifacts",
    "DirectPredictionBaseline",
    "DirectPredictionReport",
    "RuntimeBreakdown",
    "breakdown_from_evaluation",
    "ConvergenceTrace",
    "capture_convergence_traces",
    "BoxStats",
    "cost_loss",
    "iteration_reduction",
    "relative_error_summary",
    "relative_errors",
    "speedup_factor_sf",
    "speedup_su",
    "success_rate",
    "COMBINATIONS",
    "CombinationResult",
    "SensitivityReport",
    "run_sensitivity_study",
]
