"""Per-problem records and aggregated metrics of the online (serving) phase.

An :class:`OnlineRecord` is the :class:`~repro.parallel.pool.ScenarioOutcome`
of one warm-started problem plus what the outcome cannot know: the dataset's
cold-start reference, the problem's share of the start computation, and the
generation that served it.  Warm-attempt and fallback facts are read
through ``record.outcome``.
:class:`OnlineEvaluation` aggregates records into the Fig. 4 / Fig. 5 data;
:func:`evaluate_starts` is the one way to build it, whichever start is
evaluated (the engine's served start or the trainer's MTL prediction).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.metrics import iteration_reduction, speedup_su, success_rate
from repro.data.dataset import OPFDataset
from repro.opf.warmstart import WarmStart
from repro.parallel.pool import ScenarioOutcome, SolverFleet
from repro.parallel.scenarios import Scenario, ScenarioSet


@dataclass(frozen=True)
class OnlineRecord:
    """Outcome of one online (warm-started) problem.

    ``outcome`` describes the warm attempt (``success``, ``iterations``,
    ``objective``, ``solve_seconds``) and any fallback recovery
    (``used_fallback``, ``iterations_fallback``, ``fallback_seconds`` …),
    exactly as the fleet returned it.  ``iterations_cold`` /
    ``cold_solve_seconds`` / ``cost_cold`` are the dataset's cold-start
    reference for the same problem; ``inference_seconds`` is the problem's
    share of computing the batch's warm starts.  ``model_generation`` is the
    ``ServingModel`` generation that served the problem.
    """

    outcome: ScenarioOutcome
    iterations_cold: float
    cold_solve_seconds: float
    cost_cold: float
    inference_seconds: float
    model_generation: int = 0


@dataclass
class OnlineEvaluation:
    """Aggregated online results for one test system (Fig. 4 / Fig. 5 data)."""

    case_name: str
    records: List[OnlineRecord] = field(default_factory=list)

    @property
    def n_problems(self) -> int:
        """Number of evaluated problems."""
        return len(self.records)

    @property
    def _warm_successes(self) -> List[OnlineRecord]:
        return [r for r in self.records if r.outcome.success]

    @property
    def success_rate(self) -> float:
        """Warm-start success rate before any restart (Fig. 4c)."""
        return success_rate([r.outcome.success for r in self.records])

    @property
    def fallback_rate(self) -> float:
        """Fraction of problems whose warm attempt was re-solved cold."""
        if not self.records:
            return 0.0
        return float(np.mean([r.outcome.used_fallback for r in self.records]))

    @property
    def speedup(self) -> float:
        """End-to-end speedup SU of Eqn. 10 over the evaluation set (Fig. 4a)."""
        t_mips = float(np.mean([r.cold_solve_seconds for r in self.records]))
        t_mtl = float(np.mean([r.inference_seconds for r in self.records]))
        t_warm = float(
            np.mean([r.outcome.solve_seconds for r in self._warm_successes] or [t_mips])
        )
        return speedup_su(t_mips, t_mtl, t_warm, self.success_rate)

    @property
    def iteration_ratio(self) -> float:
        """Warm-start iterations as a fraction of cold-start iterations (Fig. 4b)."""
        cold = [r.iterations_cold for r in self.records]
        return iteration_reduction(
            cold, [r.outcome.iterations for r in self._warm_successes] or cold
        )

    @property
    def mean_iterations_warm(self) -> float:
        """Mean warm-start iteration count over successful problems."""
        values = [r.outcome.iterations for r in self._warm_successes]
        return float(np.mean(values)) if values else float("nan")

    @property
    def mean_iterations_cold(self) -> float:
        """Mean cold-start iteration count."""
        return float(np.mean([r.iterations_cold for r in self.records]))

    @property
    def mean_cost_deviation(self) -> float:
        """Mean relative deviation of warm-started cost from the cold-start optimum."""
        devs = [
            abs(r.outcome.objective - r.cost_cold) / max(abs(r.cost_cold), 1e-12)
            for r in self._warm_successes
        ]
        return float(np.mean(devs)) if devs else float("nan")

    def total_times(self) -> Dict[str, float]:
        """Summed per-phase wall-clock times (the Fig. 5 breakdown numerators).

        ``warm_solve`` sums the warm attempts (including failed ones) and
        ``restart`` sums the fallback recovery time, so the two keys
        partition the online solver cost.
        """
        return {
            "inference": float(sum(r.inference_seconds for r in self.records)),
            "warm_solve": float(sum(r.outcome.solve_seconds for r in self.records)),
            "restart": float(sum(r.outcome.fallback_seconds for r in self.records)),
            "cold_solve": float(sum(r.cold_solve_seconds for r in self.records)),
        }

    def solver_phase_totals(self) -> Dict[str, float]:
        """Summed per-phase MIPS component times over the warm-started solves.

        The keys are the MIPS instrumentation phases (``eval``, ``assembly``,
        ``factorization``, ``backsolve``) of each problem's final solve; these
        are the *measured* component times behind the Fig. 5 Newton-update
        bar.
        """
        totals: Dict[str, float] = {}
        for record in self.records:
            for phase, seconds in record.outcome.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals


def evaluate_starts(
    fleet: SolverFleet,
    dataset: OPFDataset,
    warm_starts_for: Callable[[np.ndarray], Sequence[WarmStart]],
    max_problems: Optional[int] = None,
    deadline: Optional[object] = None,
    model_generation: int = 0,
) -> OnlineEvaluation:
    """Warm-start the first problems of ``dataset`` and aggregate the outcomes.

    ``warm_starts_for`` maps the p.u. load features of the batch to one start
    per row; its wall-clock is attributed evenly across the records.  Cold
    timings and iteration counts are taken from the dataset (they were
    measured while generating the ground truth), so the online phase pays
    only for the starts plus the warm solve — like the deployed system.  The
    dataset's timings carry the generation sweep's lockstep width and the warm
    ones this sweep's, so SU (Eqn. 10) is a like-for-like ratio only when the
    two widths match.
    """
    n = dataset.n_samples if max_problems is None else min(max_problems, dataset.n_samples)
    if n < 1:
        raise ValueError("dataset has no problems to evaluate")
    t0 = time.perf_counter()
    warm_starts = list(warm_starts_for(dataset.inputs[:n]))
    inference_seconds = (time.perf_counter() - t0) / n
    case = fleet.case
    scenarios = ScenarioSet(
        case.name,
        [Scenario(i, dataset.Pd_mw[i], dataset.Qd_mw[i]) for i in range(n)],
        n_bus=case.n_bus,
    )
    sweep = fleet.solve(scenarios, warm_starts, deadline=deadline)
    records = [
        OnlineRecord(
            outcome=outcome,
            iterations_cold=float(dataset.iterations[outcome.scenario_id]),
            cold_solve_seconds=float(dataset.solve_seconds[outcome.scenario_id]),
            cost_cold=float(dataset.objectives[outcome.scenario_id]),
            inference_seconds=inference_seconds,
            model_generation=model_generation,
        )
        for outcome in sweep.outcomes
    ]
    return OnlineEvaluation(case_name=case.name, records=records)
