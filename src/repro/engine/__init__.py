"""Batched warm-start serving engine: inference, fleet dispatch, persistence."""

from repro.engine.fallback import CircuitBreaker, HealthWindow
from repro.engine.drift import (
    DRIFT_STATUSES,
    DriftDetector,
    DriftMonitor,
    DriftReport,
    PageHinkley,
    RollingTrend,
    SignalReport,
    default_detectors,
)
from repro.engine.records import OnlineEvaluation, OnlineRecord
from repro.engine.engine import ServingModel, WarmStartEngine
from repro.engine.artifact import (
    ARTIFACT_VERSION,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMismatchError,
    case_fingerprint,
    load_artifact,
    save_artifact,
)
from repro.engine.lifecycle import (
    ModelLifecycle,
    PromotionResult,
    ShadowGate,
    ShadowMetrics,
    ShadowReport,
)

__all__ = [
    "WarmStartEngine",
    "ServingModel",
    "OnlineRecord",
    "OnlineEvaluation",
    "HealthWindow",
    "CircuitBreaker",
    "DRIFT_STATUSES",
    "DriftDetector",
    "DriftMonitor",
    "DriftReport",
    "PageHinkley",
    "RollingTrend",
    "SignalReport",
    "default_detectors",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactMismatchError",
    "ArtifactCorruptError",
    "case_fingerprint",
    "save_artifact",
    "load_artifact",
    "ModelLifecycle",
    "PromotionResult",
    "ShadowGate",
    "ShadowMetrics",
    "ShadowReport",
]
