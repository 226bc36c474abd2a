"""Multitask-learning model, physics-informed losses and training."""

from repro.mtl.config import MTLConfig, fast_config
from repro.mtl.model import SmartPGSimMTL, TaskDimensions
from repro.mtl.normalization import DatasetNormalizer, MinMaxScaler
from repro.mtl.physics import (
    PhysicsContext,
    f_ac,
    f_cost,
    f_ieq,
    f_lag,
    physics_losses,
)
from repro.mtl.separate import SeparateTaskNetworks
from repro.mtl.trainer import (
    EpochStats,
    MTLTrainer,
    TrainingHistory,
    warm_start_from_prediction,
    warm_starts_from_predictions,
)

__all__ = [
    "MTLConfig",
    "fast_config",
    "SmartPGSimMTL",
    "SeparateTaskNetworks",
    "TaskDimensions",
    "DatasetNormalizer",
    "MinMaxScaler",
    "PhysicsContext",
    "f_ac",
    "f_ieq",
    "f_cost",
    "f_lag",
    "physics_losses",
    "MTLTrainer",
    "TrainingHistory",
    "EpochStats",
    "warm_start_from_prediction",
    "warm_starts_from_predictions",
]
