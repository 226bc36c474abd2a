"""Batched warm-start serving engine: inference, fleet dispatch, persistence."""

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

__all__ = [
    "WarmStartEngine",
    "ServingModel",
    "OnlineRecord",
    "OnlineEvaluation",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactMismatchError",
    "ArtifactCorruptError",
    "case_fingerprint",
    "save_artifact",
    "load_artifact",
]
