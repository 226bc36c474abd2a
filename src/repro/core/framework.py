"""The Smart-PGSim framework: offline training phase and online acceleration.

``SmartPGSim`` ties the substrates together exactly as Fig. 1 of the paper
describes, but since the serving-engine split it is a *thin orchestrator*:

* **offline** — sample load scenarios, collect ground truth through the pooled
  batch-solve path (:func:`repro.data.dataset.generate_dataset`), train the
  physics-informed MTL model, then wrap the result in a
  :class:`~repro.engine.engine.WarmStartEngine`;
* **online** — delegate to the engine: one batched MTL forward pass produces
  warm starts for every problem, the persistent solver fleet dispatches the
  MIPS solves, and the configured
  :class:`~repro.engine.fallback.FallbackPolicy` recovers failures (the
  paper's cold restart by default), so the workflow always converges.

The per-problem :class:`~repro.engine.records.OnlineRecord` and the
aggregated :class:`~repro.engine.records.OnlineEvaluation` live in
:mod:`repro.engine.records` and are re-exported here for backwards
compatibility.  A trained pipeline can be persisted with
``framework.engine.save_artifact(path)`` and served later without retraining
via :meth:`repro.engine.engine.WarmStartEngine.load_artifact`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.data.dataset import OPFDataset, TASK_NAMES, generate_dataset
from repro.engine.engine import WarmStartEngine
from repro.engine.fallback import get_fallback_policy
from repro.engine.records import OnlineEvaluation, OnlineRecord
from repro.grid.components import Case
from repro.mtl.config import MTLConfig, fast_config
from repro.mtl.model import SmartPGSimMTL, TaskDimensions
from repro.mtl.separate import SeparateTaskNetworks
from repro.mtl.trainer import MTLTrainer, TrainingHistory
from repro.opf.model import OPFModel
from repro.opf.options import OPFOptions
from repro.utils.logging import get_logger

__all__ = [
    "SmartPGSim",
    "SmartPGSimConfig",
    "OfflineArtifacts",
    "OnlineRecord",
    "OnlineEvaluation",
]

LOGGER = get_logger("core")


@dataclass(frozen=True)
class SmartPGSimConfig:
    """Configuration of one offline/online experiment."""

    n_samples: int = 120
    train_fraction: float = 0.8
    load_variation: float = 0.1
    seed: int = 0
    #: ``"mtl"`` (shared trunk) or ``"separate"`` (per-task networks baseline).
    model_type: str = "mtl"
    use_physics: bool = True
    mtl: MTLConfig = field(default_factory=fast_config)
    opf: OPFOptions = field(default_factory=OPFOptions)
    #: Fallback policy applied to failed warm solves (``"cold_restart"``,
    #: ``"relaxed_warm"``, ``"none"`` or a policy instance).
    fallback: str = "cold_restart"
    #: Solver workers used for ground-truth generation and online dispatch.
    n_workers: int = 1
    #: Micro-batch size for the fleet's work queue on both sides — ground-truth
    #: generation and online serving (auto-sized when None).
    microbatch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.model_type not in ("mtl", "separate"):
            raise ValueError("model_type must be 'mtl' or 'separate'")
        if self.n_samples < 5:
            raise ValueError("need at least 5 samples to train and validate")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.microbatch is not None and self.microbatch < 1:
            raise ValueError("microbatch must be positive")
        get_fallback_policy(self.fallback)  # validate eagerly


@dataclass
class OfflineArtifacts:
    """Everything produced by the offline phase."""

    dataset: OPFDataset
    train_set: OPFDataset
    validation_set: OPFDataset
    trainer: MTLTrainer
    history: TrainingHistory
    dataset_seconds: float
    training_seconds: float


class SmartPGSim:
    """Offline/online driver for one test system."""

    def __init__(self, case: Case, config: Optional[SmartPGSimConfig] = None):
        self.case = case
        self.config = config or SmartPGSimConfig()
        self.opf_model = OPFModel(case, flow_limits=self.config.opf.flow_limits)
        self.artifacts: Optional[OfflineArtifacts] = None
        self._engine: Optional[WarmStartEngine] = None

    # ------------------------------------------------------------------ offline
    def offline(self, dataset: Optional[OPFDataset] = None) -> OfflineArtifacts:
        """Run the offline phase (optionally reusing a pre-generated dataset)."""
        cfg = self.config
        t0 = time.perf_counter()
        if dataset is None:
            dataset = generate_dataset(
                self.case,
                cfg.n_samples,
                variation=cfg.load_variation,
                seed=cfg.seed,
                options=cfg.opf,
                model=self.opf_model,
                n_workers=cfg.n_workers,
                microbatch=cfg.microbatch,
            )
        dataset_seconds = time.perf_counter() - t0

        train_set, validation_set = dataset.split(cfg.train_fraction, seed=cfg.seed)
        dims = TaskDimensions(
            n_bus=self.case.n_bus,
            n_gen=self.case.n_gen,
            n_eq=dataset.task_dim("lam"),
            n_ineq=dataset.task_dim("mu"),
        )
        network_cls = SmartPGSimMTL if cfg.model_type == "mtl" else SeparateTaskNetworks
        network = network_cls(dims, cfg.mtl, seed=cfg.seed)
        trainer = MTLTrainer(
            network,
            train_set,
            self.opf_model,
            config=cfg.mtl,
            use_physics=cfg.use_physics,
        )
        t1 = time.perf_counter()
        history = trainer.train(validation_set)
        training_seconds = time.perf_counter() - t1

        self.artifacts = OfflineArtifacts(
            dataset=dataset,
            train_set=train_set,
            validation_set=validation_set,
            trainer=trainer,
            history=history,
            dataset_seconds=dataset_seconds,
            training_seconds=training_seconds,
        )
        if self._engine is not None:  # retraining: shut the old fleets down first
            self._engine.close()
        self._engine = WarmStartEngine.from_trainer(
            trainer,
            opf_options=cfg.opf,
            fallback=cfg.fallback,
            microbatch=cfg.microbatch,
        )
        LOGGER.info(
            "%s offline done: %d samples, dataset %.1fs, training %.1fs",
            self.case.name,
            dataset.n_samples,
            dataset_seconds,
            training_seconds,
        )
        return self.artifacts

    def _require_offline(self) -> OfflineArtifacts:
        if self.artifacts is None:
            raise RuntimeError("call offline() before online evaluation")
        return self.artifacts

    @property
    def engine(self) -> WarmStartEngine:
        """The serving engine wrapping the trained model (requires ``offline``)."""
        self._require_offline()
        assert self._engine is not None
        return self._engine

    # ------------------------------------------------------------------- online
    def online_evaluate(
        self,
        dataset: Optional[OPFDataset] = None,
        max_problems: Optional[int] = None,
        n_workers: Optional[int] = None,
    ) -> OnlineEvaluation:
        """Warm-start every problem of ``dataset`` (default: the validation split).

        Thin wrapper over :meth:`WarmStartEngine.evaluate`: batched inference,
        fleet dispatch, pluggable fallback.
        """
        artifacts = self._require_offline()
        dataset = dataset or artifacts.validation_set
        return self.engine.evaluate(
            dataset,
            max_problems=max_problems,
            n_workers=self.config.n_workers if n_workers is None else n_workers,
        )

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the serving engine's solver fleets (idempotent)."""
        if self._engine is not None:
            self._engine.close()

    def __enter__(self) -> "SmartPGSim":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------- prediction accuracy
    def prediction_accuracy(self, dataset: Optional[OPFDataset] = None) -> Dict[str, Dict[str, np.ndarray]]:
        """Normalised prediction-vs-ground-truth pairs per task (Fig. 6 scatter data)."""
        artifacts = self._require_offline()
        dataset = dataset or artifacts.validation_set
        pred = artifacts.trainer.predict_physical(dataset.inputs)
        out: Dict[str, Dict[str, np.ndarray]] = {}
        for task in TASK_NAMES:
            truth = dataset.targets[task]
            lo = truth.min()
            span = max(truth.max() - lo, 1e-12)
            out[task] = {
                "prediction": (pred[task] - lo) / span,
                "ground_truth": (truth - lo) / span,
            }
        return out
