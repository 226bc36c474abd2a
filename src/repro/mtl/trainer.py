"""Training loop for the MTL model (and the separate-networks baseline).

The total loss follows Eqn. 9 of the paper::

    L_total = L_supervised + L_AC + L_ieq + L_lag + L_f(X)

where ``L_supervised`` is the weighted Charbonnier loss of Eqn. 4 on the
normalised targets and the other four terms are the physics-informed
objectives of Section VII evaluated on the *denormalised* (physical)
predictions.  The auxiliary-task ``detach()`` knob is applied periodically, as
described in Section VI-B.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.data.dataset import OPFDataset, TASK_NAMES
from repro.mtl.config import MTLConfig
from repro.mtl.normalization import DatasetNormalizer
from repro.mtl.physics import PhysicsContext, physics_losses
from repro.nn.losses import charbonnier
from repro.nn.modules import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.schedulers import Scheduler
from repro.nn.serialization import load_bundle, save_bundle
from repro.nn.tensor import Tensor
from repro.opf.model import OPFModel
from repro.opf.warmstart import WarmStart
from repro.utils.logging import get_logger

LOGGER = get_logger("mtl")

#: Format version of trainer checkpoints (bump on incompatible layout change).
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EpochStats:
    """Loss breakdown of one training epoch."""

    epoch: int
    total_loss: float
    supervised_loss: float
    physics_loss: float
    physics_terms: Dict[str, float]
    detached: bool
    seconds: float


@dataclass
class TrainingHistory:
    """Full record of one training run."""

    epochs: List[EpochStats] = field(default_factory=list)
    validation_errors: List[Dict[str, float]] = field(default_factory=list)
    train_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        """Total loss of the last epoch."""
        return self.epochs[-1].total_loss if self.epochs else float("nan")


class MTLTrainer:
    """Trains a prediction network on one system's :class:`OPFDataset`."""

    def __init__(
        self,
        network: Module,
        dataset: OPFDataset,
        opf_model: OPFModel,
        config: Optional[MTLConfig] = None,
        normalizer: Optional[DatasetNormalizer] = None,
        use_physics: Optional[bool] = None,
    ):
        self.network = network
        self.dataset = dataset
        self.opf_model = opf_model
        self.config = config or getattr(network, "config", MTLConfig())
        self.config.validate()
        self.use_physics = self.config.use_physics if use_physics is None else bool(use_physics)
        self.normalizer = normalizer or DatasetNormalizer.fit(dataset.inputs, dataset.targets)
        self.physics_ctx = PhysicsContext.from_model(opf_model) if self.use_physics else None
        self.optimizer = Adam(
            network.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        #: Optional learning-rate scheduler, stepped once per epoch.  Attach
        #: after construction (it needs ``self.optimizer``)::
        #:
        #:     trainer.scheduler = StepLR(trainer.optimizer, step_size=10)
        self.scheduler: Optional[Scheduler] = None
        self._norm_inputs = np.asarray(self.normalizer.normalize_inputs(dataset.inputs), dtype=float)
        self._norm_targets = {
            task: np.asarray(values, dtype=float)
            for task, values in self.normalizer.normalize_targets(dataset.targets).items()
        }

    # ------------------------------------------------------------------ training
    def _supervised_loss(self, outputs: Dict[str, Tensor], index: np.ndarray) -> Tensor:
        loss: Optional[Tensor] = None
        for task in TASK_NAMES:
            target = Tensor(self._norm_targets[task][index])
            term = charbonnier(
                outputs[task],
                target,
                epsilon=self.config.charbonnier_eps,
                weight=self.config.task_weights[task],
            )
            loss = term if loss is None else loss + term
        assert loss is not None
        return loss

    def _physics_loss(self, outputs: Dict[str, Tensor], index: np.ndarray) -> Dict[str, Tensor]:
        assert self.physics_ctx is not None
        physical = {
            task: self.normalizer.denormalize_task(task, outputs[task]) for task in TASK_NAMES
        }
        nb = self.opf_model.case.n_bus
        Pd_pu = self.dataset.inputs[index, :nb]
        Qd_pu = self.dataset.inputs[index, nb:]
        f0 = self.dataset.objectives[index]
        weights = {
            "f_ac": self.config.weight_ac,
            "f_ieq": self.config.weight_ieq,
            "f_cost": self.config.weight_cost,
            "f_lag": self.config.weight_lag,
        }
        return physics_losses(
            self.physics_ctx,
            physical,
            Pd_pu,
            Qd_pu,
            f0,
            weights,
            exp_clip=self.config.ieq_exp_clip,
        )

    def train(
        self,
        validation: Optional[OPFDataset] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 0,
        resume_from: Optional[Union[str, Path]] = None,
        until_epoch: Optional[int] = None,
    ) -> TrainingHistory:
        """Run the configured number of epochs; returns the loss history.

        ``checkpoint_path`` + ``checkpoint_every`` save a resumable checkpoint
        after every ``checkpoint_every``-th epoch (crash-safe: the write is an
        atomic replace).  ``resume_from`` restores such a checkpoint — network
        weights, Adam moments and step counter, scheduler position and the
        batch-shuffling RNG state — so a killed run, resumed, replays the
        remaining epochs *bitwise identically* to an uninterrupted run (loss
        fields; wall-clock ``seconds`` naturally differ).  ``until_epoch``
        stops early after that epoch (inclusive), which is how tests simulate
        a kill at a deterministic point.
        """
        start = time.perf_counter()
        if resume_from is not None:
            start_epoch, rng, history = self._restore_checkpoint(resume_from)
        else:
            start_epoch = 0
            rng = np.random.default_rng(self.config.seed)
            history = TrainingHistory()
        end_epoch = self.config.epochs if until_epoch is None else min(until_epoch, self.config.epochs)

        for epoch in range(start_epoch + 1, end_epoch + 1):
            epoch_start = time.perf_counter()
            detached = self.config.detach_period > 0 and epoch % self.config.detach_period == 0
            totals = {"total": 0.0, "supervised": 0.0, "physics": 0.0}
            physics_terms_sum: Dict[str, float] = {}
            n_batches = 0

            for index in self.dataset.batches(self.config.batch_size, seed=rng.integers(2**31)):
                self.optimizer.zero_grad()
                outputs = self.network(Tensor(self._norm_inputs[index]), detach_auxiliary=detached)
                supervised = self._supervised_loss(outputs, index)
                loss = supervised
                physics_total = 0.0
                if self.use_physics:
                    terms = self._physics_loss(outputs, index)
                    loss = loss + terms["total"]
                    physics_total = terms["total"].item()
                    for name, value in terms.items():
                        if name != "total":
                            physics_terms_sum[name] = physics_terms_sum.get(name, 0.0) + value.item()
                loss.backward()
                if self.config.grad_clip:
                    clip_grad_norm(self.network.parameters(), self.config.grad_clip)
                self.optimizer.step()

                totals["total"] += loss.item()
                totals["supervised"] += supervised.item()
                totals["physics"] += physics_total
                n_batches += 1

            stats = EpochStats(
                epoch=epoch,
                total_loss=totals["total"] / n_batches,
                supervised_loss=totals["supervised"] / n_batches,
                physics_loss=totals["physics"] / n_batches,
                physics_terms={k: v / n_batches for k, v in physics_terms_sum.items()},
                detached=detached,
                seconds=time.perf_counter() - epoch_start,
            )
            history.epochs.append(stats)
            if validation is not None:
                history.validation_errors.append(self.evaluate(validation))
            if self.scheduler is not None:
                self.scheduler.step()
            if checkpoint_path is not None and checkpoint_every > 0 and epoch % checkpoint_every == 0:
                self.save_checkpoint(checkpoint_path, epoch, rng, history)
            LOGGER.debug(
                "epoch %d: total=%.4e supervised=%.4e physics=%.4e",
                epoch,
                stats.total_loss,
                stats.supervised_loss,
                stats.physics_loss,
            )

        history.train_seconds = time.perf_counter() - start
        return history

    # -------------------------------------------------------------- checkpoints
    def save_checkpoint(
        self,
        path: Union[str, Path],
        epoch: int,
        rng: np.random.Generator,
        history: TrainingHistory,
    ) -> Path:
        """Persist everything needed to resume training after ``epoch``.

        The checkpoint is a checksummed bundle (see
        :func:`repro.nn.serialization.save_bundle`) holding the network
        parameters, the Adam moment estimates and step counter, the scheduler
        position, the batch-shuffling RNG state *as of the end of the epoch*
        and the loss history so far.  Because each epoch draws exactly one
        batch seed from ``rng``, restoring this state replays the remaining
        epochs bitwise identically.
        """
        opt_state = self.optimizer.state_dict()
        arrays: Dict[str, np.ndarray] = {
            f"param/{name}": value for name, value in self.network.state_dict().items()
        }
        for i, m in enumerate(opt_state["m"]):
            arrays[f"opt/m/{i}"] = m
        for i, v in enumerate(opt_state["v"]):
            arrays[f"opt/v/{i}"] = v
        meta = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "epoch": int(epoch),
            "optimizer": {"t": int(opt_state["t"]), "lr": float(opt_state["lr"])},
            "scheduler": None if self.scheduler is None else self.scheduler.state_dict(),
            # PCG64 state is a dict of (big) ints — JSON round-trips it exactly.
            "rng_state": rng.bit_generator.state,
            "history": {
                "epochs": [asdict(e) for e in history.epochs],
                "validation_errors": history.validation_errors,
                "train_seconds": history.train_seconds,
            },
        }
        return save_bundle(path, arrays, meta)

    def _restore_checkpoint(
        self, path: Union[str, Path]
    ) -> tuple[int, np.random.Generator, TrainingHistory]:
        """Load a checkpoint into this trainer; returns ``(epoch, rng, history)``."""
        arrays, meta = load_bundle(path)
        version = meta.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {path} has version {version!r}; expected {CHECKPOINT_VERSION}"
            )
        prefix = "param/"
        self.network.load_state_dict(
            {key[len(prefix):]: value for key, value in arrays.items() if key.startswith(prefix)}
        )
        n_params = len(self.optimizer.params)
        self.optimizer.load_state_dict(
            {
                "lr": meta["optimizer"]["lr"],
                "t": meta["optimizer"]["t"],
                "m": [arrays[f"opt/m/{i}"] for i in range(n_params)],
                "v": [arrays[f"opt/v/{i}"] for i in range(n_params)],
            }
        )
        if self.scheduler is not None and meta.get("scheduler") is not None:
            self.scheduler.load_state_dict(meta["scheduler"])
        rng = np.random.default_rng(self.config.seed)
        rng.bit_generator.state = meta["rng_state"]
        history = TrainingHistory(
            epochs=[EpochStats(**stats) for stats in meta["history"]["epochs"]],
            validation_errors=list(meta["history"]["validation_errors"]),
            train_seconds=float(meta["history"]["train_seconds"]),
        )
        return int(meta["epoch"]), rng, history

    # ----------------------------------------------------------------- inference
    def predict_physical(self, inputs_pu: np.ndarray) -> Dict[str, np.ndarray]:
        """Predict all tasks for raw p.u. load vectors; outputs in physical units."""
        inputs_pu = np.atleast_2d(np.asarray(inputs_pu, dtype=float))
        outputs = self.network(Tensor(np.asarray(self.normalizer.normalize_inputs(inputs_pu))))
        return {
            task: np.asarray(self.normalizer.denormalize_task(task, out.data))
            for task, out in outputs.items()
        }

    def warm_start_for(self, input_pu: np.ndarray) -> WarmStart:
        """Build a solver warm start from the prediction for one load vector."""
        pred = self.predict_physical(np.atleast_2d(input_pu))
        return warm_start_from_prediction({k: v[0] for k, v in pred.items()}, self.opf_model)

    def warm_starts_for(self, inputs_pu: np.ndarray) -> List[WarmStart]:
        """Build warm starts for a whole batch of load vectors at once.

        One forward pass covers all rows, which is what the online evaluation
        amortises over a fleet of solver workers — N per-row
        :meth:`warm_start_for` calls pay the full Python dispatch overhead N
        times for the same arithmetic.
        """
        pred = self.predict_physical(np.atleast_2d(inputs_pu))
        return warm_starts_from_predictions(pred, self.opf_model)

    # ---------------------------------------------------------------- evaluation
    def evaluate(self, dataset: OPFDataset) -> Dict[str, float]:
        """Mean absolute error per task in physical units plus relative error."""
        pred = self.predict_physical(dataset.inputs)
        metrics: Dict[str, float] = {}
        for task in TASK_NAMES:
            target = dataset.targets[task]
            err = np.abs(pred[task] - target)
            metrics[f"mae_{task}"] = float(err.mean())
            denom = np.maximum(np.abs(target), 1e-6)
            metrics[f"rel_{task}"] = float((err / denom).mean())
        return metrics


def warm_starts_from_predictions(
    predictions: Dict[str, np.ndarray], opf_model: OPFModel
) -> List[WarmStart]:
    """Turn batched per-task predictions into one :class:`WarmStart` per row."""
    n = next(iter(predictions.values())).shape[0]
    return [
        warm_start_from_prediction({k: v[i] for k, v in predictions.items()}, opf_model)
        for i in range(n)
    ]


def warm_start_from_prediction(prediction: Dict[str, np.ndarray], opf_model: OPFModel) -> WarmStart:
    """Assemble a :class:`WarmStart` from per-task physical predictions.

    ``µ`` and ``Z`` are clipped to be strictly positive so the interior-point
    iterates stay inside the cone.
    """
    x = opf_model.idx.join(
        np.asarray(prediction["Va"], dtype=float),
        np.asarray(prediction["Vm"], dtype=float),
        np.asarray(prediction["Pg"], dtype=float),
        np.asarray(prediction["Qg"], dtype=float),
    )
    warm = WarmStart(
        x=x,
        lam=np.asarray(prediction["lam"], dtype=float),
        mu=np.asarray(prediction["mu"], dtype=float),
        z=np.asarray(prediction["z"], dtype=float),
    )
    return warm.clipped_duals()
