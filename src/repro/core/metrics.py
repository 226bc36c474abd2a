"""Performance and accuracy metrics used throughout the evaluation.

* ``speedup_su`` — the end-to-end speedup metric SU of Eqn. 10 (includes MTL
  inference time and the expected cost of restarting failed cases),
* ``speedup_factor_sf`` — the inference-only speedup factor SF of Table III,
* ``cost_loss`` — the optimality loss L_cost of Table III,
* ``relative_error_summary`` — the box-plot statistics behind Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def success_rate(successes: Sequence[bool]) -> float:
    """Fraction of problems that converged (``SR = N_suc / N_total``)."""
    successes = list(successes)
    if not successes:
        raise ValueError("success_rate of an empty sequence is undefined")
    return float(np.mean([bool(s) for s in successes]))


def speedup_su(
    t_mips: float,
    t_mtl: float,
    t_mips_warm: float,
    sr: float,
) -> float:
    """End-to-end speedup SU (Eqn. 10).

    ``t_mips`` is the cold-start solver time, ``t_mtl`` the model inference
    time, ``t_mips_warm`` the warm-started solver time and ``sr`` the success
    rate of the warm-started runs; failures pay the full cold-start time again.
    """
    if not 0.0 <= sr <= 1.0:
        raise ValueError("sr must be in [0, 1]")
    denom = t_mtl + t_mips_warm + t_mips * (1.0 - sr)
    if denom <= 0:
        raise ValueError("non-positive denominator in SU")
    return float(t_mips / denom)


def speedup_factor_sf(t_mips: Iterable[float], t_mtl: Iterable[float]) -> float:
    """Inference-only speedup factor SF (Table III): mean of per-problem ratios."""
    t_mips = np.asarray(list(t_mips), dtype=float)
    t_mtl = np.asarray(list(t_mtl), dtype=float)
    if t_mips.shape != t_mtl.shape or t_mips.size == 0:
        raise ValueError("t_mips and t_mtl must be equal-length, non-empty")
    if np.any(t_mtl <= 0):
        raise ValueError("t_mtl must be strictly positive")
    return float(np.mean(t_mips / t_mtl))


def cost_loss(true_cost: Iterable[float], predicted_cost: Iterable[float]) -> float:
    """Average fractional cost deviation L_cost in percent (Table III)."""
    c = np.asarray(list(true_cost), dtype=float)
    cp = np.asarray(list(predicted_cost), dtype=float)
    if c.shape != cp.shape or c.size == 0:
        raise ValueError("cost vectors must be equal-length, non-empty")
    return float(100.0 * np.mean(np.abs(1.0 - cp / c)))


def relative_errors(prediction: np.ndarray, truth: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Element-wise relative error ``|pred - truth| / max(|truth|, floor)``."""
    prediction = np.asarray(prediction, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return np.abs(prediction - truth) / np.maximum(np.abs(truth), floor)


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary (plus mean) of a distribution — Fig. 8's box plots."""

    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float
    mean: float

    @staticmethod
    def from_values(values: np.ndarray) -> "BoxStats":
        """Compute the summary of a non-empty array."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("cannot summarise an empty array")
        q25, median, q75 = np.percentile(values, [25, 50, 75])
        return BoxStats(
            minimum=float(values.min()),
            q25=float(q25),
            median=float(median),
            q75=float(q75),
            maximum=float(values.max()),
            mean=float(values.mean()),
        )


def relative_error_summary(prediction: np.ndarray, truth: np.ndarray) -> BoxStats:
    """Box-plot statistics of the relative prediction error."""
    return BoxStats.from_values(relative_errors(prediction, truth))


def iteration_reduction(cold_iterations: Iterable[float], warm_iterations: Iterable[float]) -> float:
    """Ratio of warm-start to cold-start iteration counts (Fig. 4b labels)."""
    cold = np.asarray(list(cold_iterations), dtype=float)
    warm = np.asarray(list(warm_iterations), dtype=float)
    if cold.size == 0 or warm.size == 0:
        raise ValueError("iteration sequences must be non-empty")
    if cold.mean() <= 0:
        raise ValueError("cold iterations must be positive")
    return float(warm.mean() / cold.mean())
