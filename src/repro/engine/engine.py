"""The batched warm-start serving engine.

:class:`WarmStartEngine` is the deployable half of Smart-PGSim: a table of
solved training problems plus everything needed to turn load scenarios into
solved AC-OPF problems at throughput —

* **retrieval warm starts** — each row starts from the inverse-distance-
  weighted mean of its nearest training solutions
  (:class:`~repro.engine.retrieval.NearestSolutions`, ``warm_starts_for``).
  On the perfbench fixture that start takes fewer MIPS iterations than the
  MTL's forward pass; the MTL stays the paper's model behind the figures
  (:meth:`repro.core.framework.SmartPGSim.online_evaluate`);
* **one persistent solver fleet per worker count** — warm-started MIPS
  solves are dispatched across the :class:`~repro.parallel.pool.SolverFleet`
  workers, which stay alive across requests of every kind (a request's
  deadline and whether it needs solutions back are per-call properties);
* **cold restart on failure** — a warm solve that does not converge is
  re-solved from the solver default inside the fleet worker, the paper's
  online procedure (see :class:`~repro.parallel.pool.WorkerState`);
* **artifact persistence** — :meth:`save_artifact` /
  :func:`repro.engine.artifact.load_artifact` bundle the retrieval table, the
  iteration cap and a case fingerprint, so an engine can be reconstructed
  from disk and serve requests without retraining.

:meth:`~WarmStartEngine.serve` and :meth:`~WarmStartEngine.evaluate` share
one path around the fleet: warm starts come from the request's
:class:`ServingModel` snapshot and every sweep is stamped with that snapshot's
generation.  ``evaluate`` additionally wraps each outcome in an
:class:`~repro.engine.records.OnlineRecord` with the dataset's cold reference.
Below the engine a time bound has one form: the absolute per-row
``deadline=`` on the ``time.monotonic()`` clock.

The offline/online driver in :mod:`repro.core.framework` is a thin
orchestrator over this class.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.data.dataset import OPFDataset
from repro.engine.records import OnlineEvaluation, evaluate_starts
from repro.engine.retrieval import NearestSolutions
from repro.grid.components import Case
from repro.mips.options import MIPSOptions
from repro.mtl.trainer import MTLTrainer, warm_starts_from_predictions
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

    starts: NearestSolutions
    generation: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.starts, NearestSolutions):
            raise TypeError(
                f"an engine serves a NearestSolutions table, not {type(self.starts).__name__}"
            )


class WarmStartEngine:
    """Serves batches of load scenarios with retrieval warm starts and a solver fleet."""

    def __init__(
        self,
        case: Case,
        starts: NearestSolutions,
        opf_options: Optional[MIPSOptions] = None,
        opf_model: Optional[OPFModel] = None,
        faults: Optional[FaultPlan] = None,
        crash_retries: int = 1,
    ):
        self.case = case
        #: The published generation.  Swapped atomically by :meth:`hot_swap`;
        #: read it through the ``starts`` / ``generation`` properties.
        self._serving = ServingModel(starts)
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
    def starts(self) -> NearestSolutions:
        """The live generation's retrieval table."""
        return self._serving.starts

    @property
    def generation(self) -> int:
        """Monotonic model-generation counter (0 at construction)."""
        return self._serving.generation

    def hot_swap(self, starts: NearestSolutions) -> int:
        """Atomically publish a new retrieval table; returns its generation.

        The next :class:`ServingModel` is built completely before being
        published in one reference assignment, so there is no instant at which
        a request can observe a half-swapped engine: requests already past
        their snapshot finish on the old generation, requests entering after
        the assignment serve the new one, and nothing is dropped.
        """
        with self._swap_lock:
            incumbent = self._serving
            self._serving = ServingModel(starts, generation=incumbent.generation + 1)
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
        """Build an engine serving the training solutions of a :class:`MTLTrainer`."""
        return cls(
            trainer.opf_model.case,
            NearestSolutions.from_dataset(trainer.dataset),
            opf_model=trainer.opf_model,
        )

    # ---------------------------------------------------------------- inference
    def predict_physical(self, inputs_pu: np.ndarray) -> Dict[str, np.ndarray]:
        """The served start of each raw p.u. load vector, in physical units.

        Row-deterministic: a row's start is bitwise identical whether it is
        served alone, in a pair or inside a wide coalesced batch, so the
        width of the flush a request rode in never leaks into its warm start.
        """
        return self._serving.starts.predict_physical(inputs_pu)

    def warm_starts_for(self, inputs_pu: np.ndarray) -> List[WarmStart]:
        """One warm start per row of a batch of load vectors."""
        return self._predict(self._serving, inputs_pu)

    def _predict(self, serving: ServingModel, inputs_pu: np.ndarray) -> List[WarmStart]:
        """Warm starts for a batch of load vectors from one snapshot."""
        return warm_starts_from_predictions(
            serving.starts.predict_physical(inputs_pu), self.opf_model
        )

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
        """Serve a batch of scenarios: retrieval warm starts + fleet dispatch.

        Every row starts from :meth:`predict_physical`.

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
        live generation — it never reaches retrieval or the fleet.
        """
        serving = self._serving
        if len(scenarios) == 0:
            return SweepResult(
                case_name=self.case.name,
                n_workers=n_workers,
                model_generation=serving.generation,
            )
        predicted = self._predict(serving, scenarios.feature_matrix(self.case.base_mva))
        sweep = self.fleet(n_workers).solve(scenarios, predicted, deadline=deadline)
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

    # --------------------------------------------------------------- evaluation
    def evaluate(
        self,
        dataset: OPFDataset,
        max_problems: Optional[int] = None,
        n_workers: int = 1,
        deadline: Optional[object] = None,
    ) -> OnlineEvaluation:
        """Warm-start every problem of ``dataset`` with the served start and
        aggregate the outcomes (see :func:`repro.engine.records.evaluate_starts`).
        """
        serving = self._serving
        return evaluate_starts(
            self.fleet(n_workers),
            dataset,
            lambda inputs_pu: self._predict(serving, inputs_pu),
            max_problems=max_problems,
            deadline=deadline,
            model_generation=serving.generation,
        )

    # -------------------------------------------------------------- persistence
    def save_artifact(self, path: Union[str, Path]) -> Path:
        """Persist the engine (retrieval table, iteration cap, case fingerprint)."""
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
