"""The batched warm-start serving engine.

:class:`WarmStartEngine` is the deployable half of Smart-PGSim: a trained
prediction network plus everything needed to turn load scenarios into solved
AC-OPF problems at throughput —

* **batched MTL inference** — one forward pass covers a whole batch of load
  vectors (``warm_starts_for``), instead of one per-row predict per scenario;
* **one persistent solver fleet per worker count** — warm-started MIPS
  solves are dispatched across the :class:`~repro.parallel.pool.SolverFleet`
  workers, which stay alive across requests of every kind (a request's
  deadline and whether it needs solutions back are per-call properties);
* **cold restart on failure** — a warm solve that does not converge is
  re-solved from the solver default inside the fleet worker, the paper's
  online procedure (see :class:`~repro.parallel.pool.WorkerState`);
* **artifact persistence** — :meth:`save_artifact` /
  :func:`repro.engine.artifact.load_artifact` bundle model weights,
  normalizer statistics, configuration and a case fingerprint, so an engine
  can be reconstructed from disk and serve requests without retraining.

:meth:`~WarmStartEngine.serve`, :meth:`~WarmStartEngine.serve_trajectory`
and :meth:`~WarmStartEngine.evaluate` share one path around the fleet: warm
starts are predicted from the request's :class:`ServingModel` snapshot and
every sweep is stamped with that snapshot's generation.  ``evaluate``
additionally wraps each outcome in an
:class:`~repro.engine.records.OnlineRecord` with the dataset's cold reference.
Below the engine a time bound has one form: the absolute per-row
``deadline=`` on the ``time.monotonic()`` clock (``serve_trajectory``'s
per-step ``deadline_seconds`` budget becomes one just before each step).

The offline/online driver in :mod:`repro.core.framework` is a thin
orchestrator over this class.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.data.dataset import OPFDataset
from repro.engine.records import OnlineEvaluation, OnlineRecord
from repro.grid.components import Case
from repro.mips.options import MIPSOptions
from repro.mtl.config import MTLConfig
from repro.mtl.normalization import DatasetNormalizer
from repro.mtl.trainer import MTLTrainer, predict_physical, warm_starts_from_predictions
from repro.nn.modules import Module
from repro.opf.model import OPFModel
from repro.opf.warmstart import WarmStart
from repro.parallel.pool import SolverFleet, SweepResult
from repro.parallel.scenarios import Scenario, ScenarioSet
from repro.testing.faults import FaultPlan
from repro.utils.logging import get_logger

LOGGER = get_logger("engine")


@dataclass(frozen=True)
class ServingModel:
    """One immutable generation of the engine's learned state.

    The engine publishes exactly one of these at a time; a hot-swap builds the
    next generation completely and then replaces the published reference in a
    single assignment.  Requests snapshot the reference once on entry, so a
    request in flight during a swap finishes on the generation it started
    with — every request is served by a *pure* generation, never a hybrid.
    """

    network: Module
    normalizer: DatasetNormalizer
    config: MTLConfig
    generation: int = 0


class WarmStartEngine:
    """Serves batches of load scenarios with MTL warm starts and a solver fleet."""

    def __init__(
        self,
        case: Case,
        network: Module,
        normalizer: DatasetNormalizer,
        config: Optional[MTLConfig] = None,
        opf_options: Optional[MIPSOptions] = None,
        opf_model: Optional[OPFModel] = None,
        faults: Optional[FaultPlan] = None,
        crash_retries: int = 1,
    ):
        self.case = case
        #: The published model generation.  Swapped atomically by
        #: :meth:`hot_swap`; read it through the ``network`` / ``normalizer``
        #: / ``config`` / ``generation`` properties.
        self._serving = ServingModel(
            network=network,
            normalizer=normalizer,
            config=config or getattr(network, "config", MTLConfig()),
        )
        self._swap_lock = threading.Lock()
        #: The MIPS settings of every solve (the iteration cap).
        self.opf_options = opf_options or MIPSOptions()
        self.opf_model = opf_model or OPFModel(case)
        #: Optional deterministic fault plan injected into fleet workers
        #: (testing only) and the crash-retry budget handed to fleets.
        self.faults = faults
        self.crash_retries = crash_retries
        #: Live fleets keyed by worker count; created lazily, kept across calls.
        self._fleets: Dict[int, SolverFleet] = {}

    # ------------------------------------------------------------ serving state
    @property
    def network(self) -> Module:
        """The live generation's prediction network."""
        return self._serving.network

    @property
    def normalizer(self) -> DatasetNormalizer:
        """The live generation's normalizer statistics."""
        return self._serving.normalizer

    @property
    def config(self) -> MTLConfig:
        """The live generation's MTL configuration."""
        return self._serving.config

    @property
    def generation(self) -> int:
        """Monotonic model-generation counter (0 at construction)."""
        return self._serving.generation

    def hot_swap(
        self,
        network: Module,
        normalizer: DatasetNormalizer,
        config: Optional[MTLConfig] = None,
    ) -> int:
        """Atomically publish a new model generation; returns its number.

        The next :class:`ServingModel` is built completely before being
        published in one reference assignment, so there is no instant at which
        a request can observe a half-swapped engine: requests already past
        their snapshot finish on the old generation, requests entering after
        the assignment serve the new one, and nothing is dropped.
        """
        with self._swap_lock:
            incumbent = self._serving
            self._serving = ServingModel(
                network=network,
                normalizer=normalizer,
                config=config or getattr(network, "config", incumbent.config),
                generation=incumbent.generation + 1,
            )
            published = self._serving
        LOGGER.info(
            "%s: hot-swapped serving model to generation %d",
            self.case.name,
            published.generation,
        )
        return published.generation

    # -------------------------------------------------------------- constructors
    @classmethod
    def from_trainer(cls, trainer: MTLTrainer) -> "WarmStartEngine":
        """Build an engine that shares a trained :class:`MTLTrainer`'s state."""
        return cls(
            trainer.opf_model.case,
            trainer.network,
            trainer.normalizer,
            config=trainer.config,
            opf_model=trainer.opf_model,
        )

    # ---------------------------------------------------------------- inference
    def predict_physical(self, inputs_pu: np.ndarray) -> Dict[str, np.ndarray]:
        """Batched inference for raw p.u. load vectors; outputs in physical units.

        Row-deterministic: a row's prediction is bitwise identical whether it
        is served alone, in a pair or inside a wide coalesced batch (see
        :func:`repro.mtl.trainer.predict_physical`), so the width of the flush
        a request rode in never leaks into its warm starts.
        """
        return predict_physical(self.network, self.normalizer, inputs_pu)

    def warm_starts_for(self, inputs_pu: np.ndarray) -> List[WarmStart]:
        """One forward pass over a batch of load vectors → one warm start per row."""
        return self._predict(self._serving, inputs_pu)

    def _predict(self, serving: ServingModel, inputs_pu: np.ndarray) -> List[WarmStart]:
        """Warm starts for a batch of load vectors from one model snapshot."""
        predictions = predict_physical(
            serving.network, serving.normalizer, np.atleast_2d(inputs_pu)
        )
        return warm_starts_from_predictions(predictions, self.opf_model)

    # ------------------------------------------------------------------ serving
    def fleet(self, n_workers: int = 1) -> SolverFleet:
        """The persistent solver fleet for ``n_workers`` (created on first use)."""
        fleet = self._fleets.get(n_workers)
        if fleet is None:
            fleet = SolverFleet(
                self.case,
                options=self.opf_options,
                n_workers=n_workers,
                model=self.opf_model if n_workers == 1 else None,
                faults=self.faults,
                crash_retries=self.crash_retries,
            )
            self._fleets[n_workers] = fleet
            LOGGER.info("%s: started solver fleet with %d worker(s)", self.case.name, n_workers)
        return fleet

    def serve(
        self,
        scenarios: ScenarioSet,
        n_workers: int = 1,
        deadline: Optional[object] = None,
    ) -> SweepResult:
        """Serve a batch of scenarios: batched inference + fleet dispatch.

        ``deadline`` (absolute ``time.monotonic()`` deadlines) bounds the
        request — a scalar shared by every scenario or a per-scenario
        sequence (``inf``/``nan`` = unbounded), which is how the async
        batcher forwards the different budgets of coalesced requests.  Expired solves
        retire with ``timed_out`` outcomes instead of raising.  Faults
        injected via the engine's
        :class:`~repro.testing.faults.FaultPlan` never escape this method —
        they surface as structured failed outcomes in the sweep.

        The published :class:`ServingModel` is snapshotted once on entry, so
        a hot-swap concurrent with this request cannot produce a hybrid: the
        whole request is served by the generation recorded on the returned
        sweep's ``model_generation``.

        An empty request short-circuits to an empty sweep stamped with the
        live generation — it never reaches inference or the fleet.
        """
        serving = self._serving
        if len(scenarios) == 0:
            return SweepResult(
                case_name=self.case.name,
                n_workers=n_workers,
                model_generation=serving.generation,
            )
        warm_starts = self._predict(serving, scenarios.feature_matrix(self.case.base_mva))
        sweep = self.fleet(n_workers).solve(scenarios, warm_starts, deadline=deadline)
        sweep.model_generation = serving.generation
        return sweep

    def serve_loads(
        self,
        Pd_mw: np.ndarray,
        Qd_mvar: np.ndarray,
        n_workers: int = 1,
        deadline: Optional[object] = None,
    ) -> SweepResult:
        """Serve raw per-bus load matrices (one row per scenario, MW/MVAr).

        ``deadline`` follows :meth:`serve` (scalar or one entry per row).  An
        empty load matrix (zero rows or a zero-size array) is a valid empty
        request and returns an empty generation-stamped sweep.
        """
        Pd_mw = np.asarray(Pd_mw, dtype=float)
        Qd_mvar = np.asarray(Qd_mvar, dtype=float)
        if Pd_mw.size == 0 and Qd_mvar.size == 0:
            return self.serve(
                ScenarioSet(self.case.name, [], n_bus=self.case.n_bus),
                n_workers=n_workers,
                deadline=deadline,
            )
        Pd_mw = np.atleast_2d(Pd_mw)
        Qd_mvar = np.atleast_2d(Qd_mvar)
        if Pd_mw.shape != Qd_mvar.shape:
            raise ValueError("Pd_mw and Qd_mvar must have matching shapes")
        # Row views into the validated matrices are enough: Scenario is frozen
        # and the rows are consumed within this call — copying every row just
        # doubled the request's allocation rate.
        scenarios = ScenarioSet(
            self.case.name,
            [Scenario(i, Pd_mw[i], Qd_mvar[i]) for i in range(Pd_mw.shape[0])],
            n_bus=self.case.n_bus,
        )
        return self.serve(scenarios, n_workers=n_workers, deadline=deadline)

    def serve_trajectory(
        self,
        steps: "Sequence[ScenarioSet]",
        n_workers: int = 1,
        warm_chain: bool = True,
        deadline_seconds: Optional[object] = None,
    ) -> "TrajectoryResult":
        """Serve a time-coupled multi-period trajectory with warm chaining.

        ``steps`` is the per-period scenario sets of one trajectory (equally
        sized — see :func:`repro.parallel.trajectory.trajectory_steps`).
        Step 0 is warm-started from batched MTL inference exactly like
        :meth:`serve`; every later step chains from its predecessor's
        converged solutions (primal + equality multipliers, with ``µ``/``Z``
        masked across topology changes) — the model predicts once, the
        trajectory's temporal locality does the rest.  ``warm_chain=False``
        serves every step from the model instead (the per-step baseline the
        benchmark compares against).  ``deadline_seconds`` is a wall budget
        per step (see :meth:`~repro.parallel.trajectory.MultiPeriodSweep.run`).
        The trajectory runs on the same fleet as :meth:`serve`.

        The published :class:`ServingModel` is snapshotted once for the whole
        trajectory and stamped on every per-step sweep.
        """
        from repro.parallel.trajectory import MultiPeriodSweep, TrajectoryResult

        steps = list(steps)
        serving = self._serving
        if not steps:
            return TrajectoryResult(case_name=self.case.name)

        def model_warm_starts(step: ScenarioSet) -> Optional[List[WarmStart]]:
            if len(step) == 0:
                return None
            return self._predict(serving, step.feature_matrix(self.case.base_mva))

        driver = MultiPeriodSweep(self.fleet(n_workers), warm_chain=warm_chain)
        if warm_chain:
            result = driver.run(steps, model_warm_starts(steps[0]), deadline_seconds)
        else:
            # Per-step model serving: no chaining, every period predicted.
            result = TrajectoryResult(case_name=self.case.name)
            for t, step in enumerate(steps):
                (sweep,) = driver.run([step], model_warm_starts(step), deadline_seconds).steps
                sweep.period = t
                result.steps.append(sweep)
        for sweep in result.steps:
            sweep.model_generation = serving.generation
        return result

    # --------------------------------------------------------------- evaluation
    def evaluate(
        self,
        dataset: OPFDataset,
        max_problems: Optional[int] = None,
        n_workers: int = 1,
        deadline: Optional[object] = None,
    ) -> OnlineEvaluation:
        """Warm-start every problem of ``dataset`` and aggregate the outcomes.

        Cold-start timings and iteration counts are taken from the dataset
        (they were measured while generating the ground truth), so the online
        phase only pays for inference plus the warm-started solve — exactly
        like the deployed system.  Those timings carry the generation sweep's
        lockstep width and the warm ones this sweep's, so SU (Eqn. 10) is a
        like-for-like ratio only when the two widths match.  Inference is one
        batched forward pass; its wall-clock is attributed evenly across the
        records.
        """
        n = dataset.n_samples if max_problems is None else min(max_problems, dataset.n_samples)
        if n < 1:
            raise ValueError("dataset has no problems to evaluate")

        serving = self._serving
        t0 = time.perf_counter()
        warm_starts = self._predict(serving, dataset.inputs[:n])
        inference_seconds = (time.perf_counter() - t0) / n

        scenarios = ScenarioSet(
            self.case.name,
            [Scenario(i, dataset.Pd_mw[i], dataset.Qd_mw[i]) for i in range(n)],
            n_bus=self.case.n_bus,
        )
        sweep = self.fleet(n_workers).solve(scenarios, warm_starts, deadline=deadline)
        records = [
            OnlineRecord(
                outcome=outcome,
                iterations_cold=float(dataset.iterations[outcome.scenario_id]),
                cold_solve_seconds=float(dataset.solve_seconds[outcome.scenario_id]),
                cost_cold=float(dataset.objectives[outcome.scenario_id]),
                inference_seconds=inference_seconds,
                model_generation=serving.generation,
            )
            for outcome in sweep.outcomes
        ]
        return OnlineEvaluation(case_name=self.case.name, records=records)

    # -------------------------------------------------------------- persistence
    def save_artifact(self, path: Union[str, Path]) -> Path:
        """Persist the engine (weights, normalizer, config, case fingerprint)."""
        from repro.engine.artifact import save_artifact

        return save_artifact(self, path)

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down every fleet this engine started (idempotent)."""
        for fleet in self._fleets.values():
            fleet.close()
        self._fleets.clear()

    def __enter__(self) -> "WarmStartEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
