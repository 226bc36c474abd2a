"""Simple warm-start predictors the served start and the MTL are ranked against.

Both return per-task predictions in physical units, keyed like
``NearestSolutions.predict_physical``, so they go through the same
``warm_starts_from_predictions`` as every other start.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.data.dataset import OPFDataset


def nearest_one(train: OPFDataset, inputs_pu: np.ndarray) -> Dict[str, np.ndarray]:
    """NN-1: the solution of the nearest training row (L2 on p.u. loads)."""
    inputs_pu = np.atleast_2d(inputs_pu)
    distance = np.linalg.norm(inputs_pu[:, None, :] - train.inputs[None, :, :], axis=2)
    nearest = np.argmin(distance, axis=1)
    return {task: values[nearest] for task, values in train.targets.items()}


def train_mean(train: OPFDataset, n_rows: int) -> Dict[str, np.ndarray]:
    """The column means of the training solutions, the same start for every row."""
    return {
        task: np.repeat(values.mean(axis=0, keepdims=True), n_rows, axis=0)
        for task, values in train.targets.items()
    }
