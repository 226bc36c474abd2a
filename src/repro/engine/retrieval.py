"""The served warm start: the nearest training solutions.

A load vector is answered with the inverse-distance-weighted mean of the
:data:`K` training solutions nearest to it (L2 on the p.u. load features).
Every row is answered on its own — distances, ranking and weights come from
that row alone, never from a GEMM over the batch — so a start is bitwise the
same whether the row is served alone, in a pair or inside a wide coalesced
flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.data.dataset import TASK_NAMES, OPFDataset

#: Neighbours averaged per start (every row when the table has fewer).
K = 4


@dataclass(frozen=True)
class NearestSolutions:
    """``inputs``: the training loads, ``(n, 2·nb)`` in p.u.; ``targets``:
    the seven per-task solutions in physical units, laid out like
    :attr:`OPFDataset.targets`."""

    inputs: np.ndarray
    targets: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        n = self.inputs.shape[0]
        if self.inputs.ndim != 2 or n == 0 or set(self.targets) != set(TASK_NAMES):
            raise ValueError(f"a retrieval table needs (n > 0, features) inputs and the tasks {TASK_NAMES}")
        if any(values.shape[0] != n for values in self.targets.values()):
            raise ValueError("every target must have one row per input row")

    @classmethod
    def from_dataset(cls, dataset: OPFDataset) -> "NearestSolutions":
        """The table of a (training) dataset's loads and solutions."""
        return cls(
            inputs=np.array(dataset.inputs, dtype=float),
            targets={task: np.array(dataset.targets[task], dtype=float) for task in TASK_NAMES},
        )

    def predict_physical(self, inputs_pu: np.ndarray) -> Dict[str, np.ndarray]:
        """The start of each row of ``inputs_pu``, keyed like the MTL's predictions.

        Ties in distance go to the earlier training row; a row at distance
        zero from a training row gets that row's solution exactly.
        """
        queries = np.atleast_2d(np.asarray(inputs_pu, dtype=float))
        k = min(K, self.inputs.shape[0])
        nearest = np.empty((queries.shape[0], k), dtype=np.intp)
        weights = np.zeros((queries.shape[0], k))
        exact = np.zeros(queries.shape[0], dtype=bool)
        for i, row in enumerate(queries):
            diff = self.inputs - row
            distance = np.sqrt(np.sum(diff * diff, axis=1))
            nearest[i] = np.argsort(distance, kind="stable")[:k]
            closest = distance[nearest[i]]
            exact[i] = closest[0] == 0.0
            if exact[i]:
                weights[i, 0] = 1.0
            else:
                weights[i] = (1.0 / closest) / np.sum(1.0 / closest)
        predictions = {}
        for task, table in self.targets.items():
            mean = weights[:, :1] * table[nearest[:, 0]]
            for j in range(1, k):
                mean += weights[:, j : j + 1] * table[nearest[:, j]]
            mean[exact] = table[nearest[exact, 0]]
            predictions[task] = mean
        return predictions
