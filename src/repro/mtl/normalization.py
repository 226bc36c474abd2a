"""Min-max normalisation of model inputs and task targets.

The paper pre-processes the raw ground-truth values into the normalised range
``[0, 1]`` so that sigmoid output layers can act as hard bounds on ``Z`` and
``µ``.  The same scheme is applied to the inputs ``[Pd, Qd]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.nn.tensor import Tensor

ArrayOrTensor = Union[np.ndarray, Tensor]


@dataclass
class MinMaxScaler:
    """Per-dimension min-max scaler mapping data into ``[0, 1]``.

    Dimensions with (near-)zero range are mapped to 0.5 by widening the span
    symmetrically, which keeps the inverse transform exact at the observed
    value.
    """

    lo: np.ndarray
    span: np.ndarray

    @staticmethod
    def fit(values: np.ndarray, min_span: float = 1e-8) -> "MinMaxScaler":
        """Fit the scaler on an ``(n_samples, dim)`` array."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("expected a 2-D array of samples")
        lo = values.min(axis=0)
        hi = values.max(axis=0)
        span = hi - lo
        # Dimensions with a (near-)zero range are widened symmetrically around
        # their centre so the observed values still map inside [0, 1].
        degenerate = span < min_span
        center = 0.5 * (lo + hi)
        lo = np.where(degenerate, center - 0.5 * min_span, lo)
        span = np.where(degenerate, min_span, span)
        return MinMaxScaler(lo=lo, span=span)

    def transform(self, values: ArrayOrTensor) -> ArrayOrTensor:
        """Map raw values into the normalised space (works on arrays and tensors)."""
        return (values - self.lo) / self.span

    def inverse(self, normalised: ArrayOrTensor) -> ArrayOrTensor:
        """Map normalised values back to physical units."""
        return normalised * self.span + self.lo


@dataclass
class DatasetNormalizer:
    """Bundle of the input scaler and one scaler per prediction task."""

    inputs: MinMaxScaler
    tasks: Dict[str, MinMaxScaler]

    @staticmethod
    def fit(inputs: np.ndarray, targets: Dict[str, np.ndarray]) -> "DatasetNormalizer":
        """Fit all scalers on the training split."""
        return DatasetNormalizer(
            inputs=MinMaxScaler.fit(inputs),
            tasks={task: MinMaxScaler.fit(values) for task, values in targets.items()},
        )

    def normalize_inputs(self, inputs: ArrayOrTensor) -> ArrayOrTensor:
        """Normalise a batch of input feature vectors."""
        return self.inputs.transform(inputs)

    def normalize_targets(self, targets: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Normalise every task's target array."""
        return {task: self.tasks[task].transform(values) for task, values in targets.items()}

    def denormalize_task(self, task: str, values: ArrayOrTensor) -> ArrayOrTensor:
        """Map one task's normalised predictions back to physical units."""
        return self.tasks[task].inverse(values)

