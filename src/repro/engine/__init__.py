"""Batched warm-start serving engine: retrieval starts, fleet dispatch, persistence."""

from repro.engine.records import OnlineEvaluation, OnlineRecord, evaluate_starts
from repro.engine.retrieval import NearestSolutions
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

__all__ = [
    "WarmStartEngine",
    "ServingModel",
    "NearestSolutions",
    "OnlineRecord",
    "OnlineEvaluation",
    "evaluate_starts",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactMismatchError",
    "ArtifactCorruptError",
    "case_fingerprint",
    "save_artifact",
    "load_artifact",
]
