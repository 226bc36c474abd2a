"""Sensitivity study of the warm-start signals (Table I, Section V).

For every combination of *precise* (ground-truth) versus *imprecise* (solver
default) values of the four signals ``X, λ, µ, Z`` this tool warm-starts MIPS
and measures the success rate and the speedup relative to the all-default
baseline.  The results drive the MTL design decisions (feature prioritisation
and the physics-dependent hierarchy).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.grid.components import Case
from repro.grid.perturb import sample_loads
from repro.opf.model import OPFModel
from repro.opf.solver import solve_opf
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike

LOGGER = get_logger("sensitivity")

#: The 16 precise/imprecise combinations in the paper's Table I row order
#: (columns are X, λ, µ, Z; 0 = imprecise default, 1 = precise value).
COMBINATIONS: Tuple[Tuple[int, int, int, int], ...] = tuple(
    itertools.product((0, 1), repeat=4)
)


@dataclass(frozen=True)
class CombinationResult:
    """Success rate and speedup of one precise/imprecise combination."""

    use_x: bool
    use_lam: bool
    use_mu: bool
    use_z: bool
    success_rate: float
    speedup: float
    mean_iterations: float

    @property
    def label(self) -> str:
        """Four-character 0/1 label in (X, λ, µ, Z) order."""
        return "".join(str(int(v)) for v in (self.use_x, self.use_lam, self.use_mu, self.use_z))


@dataclass
class SensitivityReport:
    """Table I for a single test system."""

    case_name: str
    n_scenarios: int
    rows: List[CombinationResult] = field(default_factory=list)

    def as_table(self) -> List[Dict[str, object]]:
        """List of dictionaries, one per combination (easy to print or dump)."""
        return [
            {
                "X": int(r.use_x),
                "lambda": int(r.use_lam),
                "mu": int(r.use_mu),
                "Z": int(r.use_z),
                "success_rate_pct": round(100.0 * r.success_rate, 1),
                "speedup": round(r.speedup, 2) if np.isfinite(r.speedup) else None,
                "mean_iterations": round(r.mean_iterations, 2),
            }
            for r in self.rows
        ]

    def row(self, label: str) -> CombinationResult:
        """Look up a combination by its 0/1 label, e.g. ``"1111"``."""
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no combination {label!r}")


def run_sensitivity_study(
    case: Case,
    n_scenarios: int = 20,
    variation: float = 0.1,
    seed: RNGLike = 0,
    combinations: Sequence[Tuple[int, int, int, int]] = COMBINATIONS,
) -> SensitivityReport:
    """Reproduce Table I for ``case``.

    For each sampled scenario the problem is first solved from the default
    start to obtain both the baseline timing and the precise values of
    ``X, λ, µ, Z``; each requested combination is then warm-started with the
    selected subset of precise values.
    """
    model = OPFModel(case)
    scenarios = sample_loads(case, n_scenarios, variation=variation, seed=seed)

    baselines = []
    for sample in scenarios:
        t0 = time.perf_counter()
        result = solve_opf(case, Pd_mw=sample.Pd, Qd_mvar=sample.Qd, model=model)
        elapsed = time.perf_counter() - t0
        if not result.success:
            LOGGER.warning("baseline solve failed for scenario %d; skipping", sample.scenario_id)
            continue
        baselines.append((sample, result, elapsed))
    if not baselines:
        raise RuntimeError("no baseline scenario converged; cannot run the sensitivity study")

    report = SensitivityReport(case_name=case.name, n_scenarios=len(baselines))
    for combo in combinations:
        use_x, use_lam, use_mu, use_z = (bool(v) for v in combo)
        successes: List[bool] = []
        speedups: List[float] = []
        iterations: List[float] = []
        for sample, base_result, base_elapsed in baselines:
            warm = base_result.warm_start().masked(
                use_x=use_x, use_lam=use_lam, use_mu=use_mu, use_z=use_z
            )
            t0 = time.perf_counter()
            result = solve_opf(
                case, warm_start=warm, Pd_mw=sample.Pd, Qd_mvar=sample.Qd, model=model
            )
            elapsed = time.perf_counter() - t0
            successes.append(result.success)
            iterations.append(result.iterations)
            if result.success and elapsed > 0:
                speedups.append(base_elapsed / elapsed)
        sr = float(np.mean(successes))
        report.rows.append(
            CombinationResult(
                use_x=use_x,
                use_lam=use_lam,
                use_mu=use_mu,
                use_z=use_z,
                success_rate=sr,
                speedup=float(np.mean(speedups)) if speedups else float("nan"),
                mean_iterations=float(np.mean(iterations)),
            )
        )
    return report
