"""Closed-loop model lifecycle: retrain, shadow-evaluate, hot-swap.

This module closes the loop the drift monitor (:mod:`repro.engine.drift`)
opens.  When the monitor flags a degradation trend, an operator (or an
automated job) runs the :class:`ModelLifecycle` pipeline:

1. **retrain** — continue training on fresh data with *checkpointed* progress
   (:meth:`MTLTrainer.train` with ``checkpoint_path``), so a killed retrain
   resumes bitwise-identically instead of starting over;
2. **build** — persist the retrained model as a candidate artifact (the same
   checksummed bundle format the engine serves from);
3. **shadow** — evaluate the candidate *and* the live incumbent on a held-back
   slice, in isolated shadow engines that share nothing mutable with the
   serving path (no breaker, no drift monitor, private ``OPFModel`` memos);
   a :class:`ShadowGate` decides whether the candidate actually beats the
   incumbent on fallback rate / iteration cost;
4. **publish** — atomically hot-swap the engine to the candidate
   (:meth:`~repro.engine.engine.WarmStartEngine.hot_swap`).  Requests in
   flight finish on the old generation, new requests serve the new one,
   nothing is dropped and nothing is hybrid.

Every failure path is first-class: a corrupt or mismatched artifact, a gate
rejection, or an injected fault (:class:`~repro.testing.faults.LifecycleFaultPlan`)
produces a rejected :class:`PromotionResult` with the incumbent generation
untouched — and rejected candidates stay replayable via
:meth:`ModelLifecycle.replay_rejected`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.data.dataset import OPFDataset
from repro.engine.artifact import ArtifactError, load_artifact, save_artifact
from repro.engine.engine import ServingModel, WarmStartEngine
from repro.engine.records import OnlineEvaluation
from repro.mtl.trainer import MTLTrainer, TrainingHistory
from repro.testing.faults import FaultInjectionError, LifecycleFaultPlan
from repro.utils.logging import get_logger

LOGGER = get_logger("lifecycle")

__all__ = [
    "ShadowMetrics",
    "ShadowGate",
    "ShadowReport",
    "PromotionResult",
    "ModelLifecycle",
]


@dataclass(frozen=True)
class ShadowMetrics:
    """Serving-cost summary of one model over the shadow slice."""

    n_problems: int
    convergence_rate: float
    fallback_rate: float
    #: Mean iterations of the solve that produced each final answer (always
    #: defined, unlike the warm-only mean, which is NaN when nothing converges).
    mean_iterations: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_problems": self.n_problems,
            "convergence_rate": self.convergence_rate,
            "fallback_rate": self.fallback_rate,
            "mean_iterations": self.mean_iterations,
        }


@dataclass(frozen=True)
class ShadowGate:
    """Promotion criteria: the candidate must beat (or match) the incumbent.

    ``fallback_rate_slack`` is absolute (rate points), ``iteration_slack``
    relative (fraction of the incumbent's mean).  The defaults demand the
    candidate be no worse on every axis; loosen them when a retrained model
    is expected to trade a little iteration cost for robustness.
    """

    min_problems: int = 4
    fallback_rate_slack: float = 0.0
    iteration_slack: float = 0.0
    convergence_slack: float = 0.0

    def __post_init__(self) -> None:
        if self.min_problems < 1:
            raise ValueError("min_problems must be positive")
        for name in ("fallback_rate_slack", "iteration_slack", "convergence_slack"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def decide(self, candidate: ShadowMetrics, incumbent: ShadowMetrics) -> "ShadowReport":
        """Compare candidate against incumbent; returns the gate's verdict."""
        reasons: List[str] = []
        if candidate.n_problems < self.min_problems:
            reasons.append(
                f"shadow slice has {candidate.n_problems} problem(s); "
                f"gate requires at least {self.min_problems}"
            )
        if candidate.convergence_rate < incumbent.convergence_rate - self.convergence_slack:
            reasons.append(
                f"convergence rate {candidate.convergence_rate:.3f} below incumbent "
                f"{incumbent.convergence_rate:.3f} (slack {self.convergence_slack:.3f})"
            )
        if candidate.fallback_rate > incumbent.fallback_rate + self.fallback_rate_slack:
            reasons.append(
                f"fallback rate {candidate.fallback_rate:.3f} exceeds incumbent "
                f"{incumbent.fallback_rate:.3f} (slack {self.fallback_rate_slack:.3f})"
            )
        if np.isnan(candidate.mean_iterations):
            reasons.append("candidate produced no iteration statistics")
        elif not np.isnan(incumbent.mean_iterations):
            budget = incumbent.mean_iterations * (1.0 + self.iteration_slack)
            if candidate.mean_iterations > budget:
                reasons.append(
                    f"mean iterations {candidate.mean_iterations:.2f} exceed incumbent "
                    f"budget {budget:.2f} "
                    f"(incumbent {incumbent.mean_iterations:.2f}, "
                    f"slack {self.iteration_slack:.3f})"
                )
        return ShadowReport(
            candidate=candidate,
            incumbent=incumbent,
            passed=not reasons,
            reasons=tuple(reasons),
        )


@dataclass(frozen=True)
class ShadowReport:
    """Outcome of one shadow evaluation (candidate vs. incumbent)."""

    candidate: ShadowMetrics
    incumbent: ShadowMetrics
    passed: bool
    reasons: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "candidate": self.candidate.to_dict(),
            "incumbent": self.incumbent.to_dict(),
            "passed": self.passed,
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class PromotionResult:
    """Outcome of one promotion attempt.

    ``generation`` is the engine's published generation *after* the attempt —
    the new generation when promoted, the untouched incumbent otherwise.
    ``stage`` is the pipeline stage reached (``load`` / ``shadow`` /
    ``publish``); on rejection it names the stage that failed.
    """

    promoted: bool
    generation: int
    stage: str
    reason: str
    artifact_path: str
    attempt: int
    shadow: Optional[ShadowReport] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "promoted": self.promoted,
            "generation": self.generation,
            "stage": self.stage,
            "reason": self.reason,
            "artifact_path": self.artifact_path,
            "attempt": self.attempt,
            "shadow": None if self.shadow is None else self.shadow.to_dict(),
        }


class ModelLifecycle:
    """Controller for the retrain → shadow → promote loop of one engine.

    The lifecycle owns no model state itself: it drives the ``trainer`` for
    checkpointed retraining, stages candidates on disk as ordinary engine
    artifacts and promotes through the engine's atomic
    :meth:`~repro.engine.engine.WarmStartEngine.hot_swap`.  An optional
    :class:`~repro.testing.faults.LifecycleFaultPlan` injects deterministic
    failures at each stage boundary for chaos tests.
    """

    def __init__(
        self,
        engine: WarmStartEngine,
        trainer: Optional[MTLTrainer] = None,
        gate: Optional[ShadowGate] = None,
        faults: Optional[LifecycleFaultPlan] = None,
    ):
        self.engine = engine
        self.trainer = trainer
        self.gate = gate or ShadowGate()
        self.faults = faults or LifecycleFaultPlan.none()
        #: Every promotion attempt, in order (promoted and rejected alike).
        self.attempts: List[PromotionResult] = []
        self._attempt_counter = 0

    # ------------------------------------------------------------- drift signal
    def retrain_recommended(self) -> bool:
        """True when the engine's drift monitor has left *stationary*."""
        report = self.engine.drift_report()
        return report is not None and report.status != "stationary"

    # ---------------------------------------------------------------- retraining
    def retrain(
        self,
        validation: Optional[OPFDataset] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[Union[str, Path]] = None,
        until_epoch: Optional[int] = None,
    ) -> TrainingHistory:
        """Run (or resume) a checkpointed training pass on the trainer."""
        if self.trainer is None:
            raise ValueError("this lifecycle was built without a trainer")
        return self.trainer.train(
            validation=validation,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            until_epoch=until_epoch,
        )

    def build_candidate(self, path: Union[str, Path]) -> Path:
        """Persist the trainer's current model as a candidate artifact.

        The candidate is written through the crash-safe bundle writer, so a
        kill mid-build leaves no truncated artifact at the published path.
        """
        if self.trainer is None:
            raise ValueError("this lifecycle was built without a trainer")
        self.faults.check("build", self._attempt_counter)
        staging = WarmStartEngine(
            self.engine.case,
            self.trainer.network,
            self.trainer.normalizer,
            config=self.trainer.config,
            opf_options=self.engine.opf_options,
            opf_model=self.trainer.opf_model,
        )
        return save_artifact(staging, path)

    # ------------------------------------------------------------ shadow + swap
    def _shadow_engine(self, serving: ServingModel) -> WarmStartEngine:
        """An isolated single-worker engine around one model generation.

        No breaker, no drift monitor, and a private ``OPFModel`` (its memo
        caches are mutable, so the live one is never shared across threads) —
        shadow traffic must not perturb live health state.
        """
        return WarmStartEngine(
            self.engine.case,
            serving.network,
            serving.normalizer,
            config=serving.config,
            opf_options=self.engine.opf_options,
        )

    @staticmethod
    def _metrics(evaluation: OnlineEvaluation) -> ShadowMetrics:
        records = evaluation.records
        return ShadowMetrics(
            n_problems=len(records),
            convergence_rate=(
                float(np.mean([r.outcome.converged for r in records])) if records else 0.0
            ),
            fallback_rate=evaluation.fallback_rate,
            mean_iterations=(
                float(np.mean([r.outcome.final_iterations for r in records]))
                if records
                else float("nan")
            ),
        )

    def shadow_evaluate(
        self,
        candidate_path: Union[str, Path],
        dataset: OPFDataset,
        max_problems: Optional[int] = None,
    ) -> ShadowReport:
        """Evaluate a candidate artifact against the live incumbent.

        Both models run over the same held-back slice in isolated shadow
        engines; the gate's verdict is returned without touching the live
        serving path (no swap, no breaker/drift mutation).
        """
        candidate = load_artifact(
            candidate_path, self.engine.case, opf_options=self.engine.opf_options
        )
        try:
            return self._compare(candidate, dataset, max_problems)
        finally:
            candidate.close()

    def _compare(
        self,
        candidate: WarmStartEngine,
        dataset: OPFDataset,
        max_problems: Optional[int],
    ) -> ShadowReport:
        incumbent = self._shadow_engine(self.engine.serving_model)
        try:
            candidate_eval = candidate.evaluate(dataset, max_problems=max_problems)
            incumbent_eval = incumbent.evaluate(dataset, max_problems=max_problems)
        finally:
            incumbent.close()
        return self.gate.decide(self._metrics(candidate_eval), self._metrics(incumbent_eval))

    def promote(
        self,
        candidate_path: Union[str, Path],
        dataset: OPFDataset,
        max_problems: Optional[int] = None,
    ) -> PromotionResult:
        """Run the full load → shadow → publish pipeline for one candidate.

        Never raises for a bad candidate: integrity failures
        (:class:`~repro.engine.artifact.ArtifactError` and subclasses), gate
        rejections and injected lifecycle faults all produce a rejected
        :class:`PromotionResult` with the incumbent generation untouched.
        A candidate that clears the gate is published atomically; on success
        the engine's breaker and drift monitor are reset (inside
        ``hot_swap``) so the new generation starts with clean health state.
        """
        attempt = self._attempt_counter
        self._attempt_counter += 1
        path = str(candidate_path)
        stage = "load"
        shadow: Optional[ShadowReport] = None
        candidate: Optional[WarmStartEngine] = None
        try:
            self.faults.check(stage, attempt)
            candidate = load_artifact(
                candidate_path, self.engine.case, opf_options=self.engine.opf_options
            )
            stage = "shadow"
            self.faults.check(stage, attempt)
            shadow = self._compare(candidate, dataset, max_problems)
            if not shadow.passed:
                return self._record(
                    PromotionResult(
                        promoted=False,
                        generation=self.engine.generation,
                        stage=stage,
                        reason="candidate failed shadow gate: " + "; ".join(shadow.reasons),
                        artifact_path=path,
                        attempt=attempt,
                        shadow=shadow,
                    )
                )
            stage = "publish"
            self.faults.check(stage, attempt)
            generation = self.engine.hot_swap(
                candidate.network, candidate.normalizer, candidate.config
            )
            return self._record(
                PromotionResult(
                    promoted=True,
                    generation=generation,
                    stage=stage,
                    reason="candidate cleared the shadow gate",
                    artifact_path=path,
                    attempt=attempt,
                    shadow=shadow,
                )
            )
        except (ArtifactError, FaultInjectionError) as exc:
            return self._record(
                PromotionResult(
                    promoted=False,
                    generation=self.engine.generation,
                    stage=stage,
                    reason=f"{type(exc).__name__}: {exc}",
                    artifact_path=path,
                    attempt=attempt,
                    shadow=shadow,
                )
            )
        finally:
            if candidate is not None:
                candidate.close()

    def _record(self, result: PromotionResult) -> PromotionResult:
        self.attempts.append(result)
        if result.promoted:
            LOGGER.info(
                "promotion attempt %d published generation %d from %s",
                result.attempt,
                result.generation,
                result.artifact_path,
            )
        else:
            LOGGER.warning(
                "promotion attempt %d rejected at stage %r: %s",
                result.attempt,
                result.stage,
                result.reason,
            )
        return result

    # ----------------------------------------------------------------- replays
    @property
    def promotions(self) -> List[PromotionResult]:
        """Successful promotion attempts, in order."""
        return [a for a in self.attempts if a.promoted]

    @property
    def rejections(self) -> List[PromotionResult]:
        """Rejected promotion attempts, in order."""
        return [a for a in self.attempts if not a.promoted]

    def replay_rejected(
        self,
        dataset: OPFDataset,
        max_problems: Optional[int] = None,
    ) -> PromotionResult:
        """Re-run the most recently rejected candidate through the pipeline.

        The candidate artifact is re-read from disk, so a rejection caused by
        a since-repaired file (or a transient injected fault) can succeed on
        replay; a rejection caused by the gate will simply be re-judged on
        the (possibly different) slice.
        """
        rejected = self.rejections
        if not rejected:
            raise ValueError("no rejected promotion attempt to replay")
        return self.promote(rejected[-1].artifact_path, dataset, max_problems=max_problems)
