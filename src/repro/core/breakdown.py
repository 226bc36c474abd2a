"""Runtime breakdown of the online phase (Fig. 5).

The paper normalises every phase to the total MIPS-only runtime and reports
four components for Smart-PGSim: problem pre-processing, Newton updates (the
warm-started solve), MTL inference and restarts of failed cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.engine.records import OnlineEvaluation


@dataclass(frozen=True)
class RuntimeBreakdown:
    """Per-phase wall-clock totals (seconds) for one evaluation set.

    ``newton_phases`` further splits the Newton-update bar into the measured
    MIPS component times (callback evaluation, KKT assembly, factorisation,
    back-substitution) collected by the solver instrumentation; it is empty
    when the evaluation was produced without phase recording.
    """

    preprocess: float
    newton_update: float
    inference: float
    restart: float
    mips_total: float
    newton_phases: Dict[str, float] = field(default_factory=dict)

    def newton_phase_fractions(self) -> Dict[str, float]:
        """Measured Newton components as fractions of the warm-solve total."""
        if self.newton_update <= 0:
            return {}
        return {
            phase: seconds / self.newton_update
            for phase, seconds in self.newton_phases.items()
        }

    @property
    def smart_total(self) -> float:
        """Total Smart-PGSim runtime (all four phases)."""
        return self.preprocess + self.newton_update + self.inference + self.restart

    def normalized(self) -> Dict[str, float]:
        """Every phase divided by the MIPS-only total, as plotted in Fig. 5."""
        if self.mips_total <= 0:
            raise ValueError("mips_total must be positive")
        return {
            "preprocess": self.preprocess / self.mips_total,
            "newton_update": self.newton_update / self.mips_total,
            "inference": self.inference / self.mips_total,
            "restart": self.restart / self.mips_total,
            "smart_pgsim_total": self.smart_total / self.mips_total,
        }


def breakdown_from_evaluation(
    evaluation: OnlineEvaluation, preprocess_fraction: float = 0.05
) -> RuntimeBreakdown:
    """Build the Fig. 5 breakdown from an :class:`OnlineEvaluation`.

    Pre-processing (admittance construction, problem assembly) is shared by
    both pipelines; it is charged as ``preprocess_fraction`` of the cold-start
    solver time, which matches the small slice visible in the paper's figure.
    """
    if not evaluation.records:
        raise ValueError("evaluation has no records")
    totals = evaluation.total_times()
    preprocess = preprocess_fraction * totals["cold_solve"]
    return RuntimeBreakdown(
        preprocess=preprocess,
        newton_update=totals["warm_solve"],
        inference=totals["inference"],
        restart=totals["restart"],
        mips_total=totals["cold_solve"] + preprocess,
        newton_phases=evaluation.solver_phase_totals(),
    )
