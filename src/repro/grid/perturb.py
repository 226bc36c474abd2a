"""Load-scenario sampling.

The paper samples every bus load uniformly at random within ``±t`` of its
nominal value (``t = 10 %``), consistent with prior AC-OPF learning work, and
feeds the sampled problems to the solver to build training data.  This module
implements that sampling; every draw is independent of the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.grid.components import Case
from repro.utils.rng import RNGLike, ensure_rng


@dataclass(frozen=True)
class LoadSample:
    """One sampled load scenario (MW / MVAr per bus)."""

    Pd: np.ndarray
    Qd: np.ndarray
    scenario_id: int = 0

    def apply(self, case: Case) -> Case:
        """Return a copy of ``case`` with this scenario's loads installed."""
        return case.with_loads(self.Pd, self.Qd, name=f"{case.name}#s{self.scenario_id}")

    def feature_vector(self) -> np.ndarray:
        """Concatenated ``[Pd, Qd]`` vector — the MTL model input (Section VI-C)."""
        return np.concatenate([self.Pd, self.Qd])


def sample_loads(
    case: Case,
    n_samples: int,
    variation: float = 0.1,
    seed: RNGLike = None,
) -> List[LoadSample]:
    """Sample ``n_samples`` independent ±``variation`` uniform load scenarios.

    Each bus load is drawn uniformly from ``[(1 - t) * Pd_i, (1 + t) * Pd_i]``
    (and likewise for ``Qd``), matching the paper's load-sampling protocol.
    Buses with zero nominal load stay at zero.  ``variation`` must lie in
    ``[0, 1]``: above 1 a factor ``1 - variation`` can go negative and turn a
    load into an injection.  Both arguments are checked before any draw.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if not 0.0 <= variation <= 1.0:
        raise ValueError(f"variation must lie in [0, 1], got {variation}")
    rng = ensure_rng(seed)
    Pd0, Qd0 = case.bus.Pd, case.bus.Qd
    samples = []
    for i in range(n_samples):
        fp = rng.uniform(1.0 - variation, 1.0 + variation, size=case.n_bus)
        fq = rng.uniform(1.0 - variation, 1.0 + variation, size=case.n_bus)
        samples.append(LoadSample(Pd=Pd0 * fp, Qd=Qd0 * fq, scenario_id=i))
    return samples
