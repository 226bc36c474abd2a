"""Process-pool scenario runner and the persistent solver fleet.

The SC-ACOPF scenario sweep is embarrassingly parallel: each worker receives a
batch of scenarios, pairs them with warm starts produced by batched MTL
inference in the parent and solves them independently.  This module
distributes that sweep over CPU processes — the same scatter → compute →
gather structure as the paper's multi-GPU data parallelism, with processes
standing in for GPUs.

Workers are *persistent* at two levels.  Within one sweep the case and solver
options are shipped once via the pool initializer, each worker builds its
:class:`~repro.opf.model.OPFModel` (admittances, sparsity-structure caches)
once and per-batch messages carry only scenarios and warm starts.  Across
sweeps a :class:`SolverFleet` keeps the worker processes alive, which is what
the serving engine uses to amortise process start-up over many requests.

A sweep runs one way.  It is cut into micro-batches in input order
(:mod:`repro.parallel.scheduler`), and every micro-batch is solved in lockstep
through :func:`repro.opf.batch.solve_opf_batch`, which vectorises the
evaluation/assembly phases across the batch and loops only for the
per-scenario factorise/backsolve.  Branch outages are per-row data of that
solve (a zero coefficient on the intact network's element kernels), so the
scenarios of every N-k topology share one lockstep batch, one sparsity
pattern and the per-worker model's one
:class:`~repro.opf.batch.BatchedOPFModel`.
Multi-worker fleets put the micro-batches on a shared queue that idle workers
pull from — a straggling scenario keeps only its own micro-batch busy while
the rest of the sweep is stolen by the other workers; the in-process fleet
has nobody to steal from and solves the whole sweep as one group, optionally
streamed through a bounded lockstep window whose retired slots are refilled
between iterations.

Failed solves can be recovered in-worker through a pluggable fallback policy
(see :mod:`repro.engine.fallback`); the policy object is shipped with the
initializer, so recovery costs no extra scatter/gather round trip.  The
(rare) recoveries run per scenario after the lockstep solve, as one-row
lockstep solves on the same model with the same per-row outage data.

:meth:`SolverFleet.solve_many` extends the same machinery across *several*
sweeps at once: their scenarios — intact, N-1 and N-k alike — merge into one
dispatch and share lockstep groups.  Scheduling only decides where and with
whom a scenario is solved; lockstep solves are row-independent bit for bit,
so per-scenario results are invariant under chunking, steal order, worker
count and micro-batch size.

Dispatch is *supervised* (:mod:`repro.parallel.supervision`): tasks flow
through a crash-aware worker pool, and a task whose worker dies (or whose
solve raises) is retried with a bounded budget, then **bisected** (halved)
until the culprit scenario is isolated and quarantined as a structured failed
outcome.  Bisection fragments re-enter the normal solve path, and lockstep
row independence guarantees the surviving scenarios' results stay
bit-identical to a fault-free sweep.
Wall deadlines ride along with each task **per scenario** — a request-wide
scalar and a per-scenario vector (the async batcher's coalesced-flush shape)
normalise to the same per-row form — and reach the solver's cooperative
between-iteration checks; an expired scenario retires as a ``timed_out``
outcome without perturbing its lockstep neighbours, and a dispatched task
whose deadlines have partially passed retires only the expired rows while
solving the rest.
Deterministic chaos for all of this comes from an optional
:class:`~repro.testing.faults.FaultPlan` shipped to the workers with the
initializer.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.components import Case
from repro.opf.batch import solve_opf_batch
from repro.opf.model import OPFModel
from repro.opf.options import OPFOptions
from repro.opf.result import OPFResult
from repro.opf.warmstart import WarmStart
from repro.parallel.scenarios import Scenario, ScenarioSet
from repro.parallel.scheduler import make_microbatches
from repro.parallel.supervision import SupervisedPool
from repro.testing.faults import FaultInjectionError, FaultPlan, execute_kill

if TYPE_CHECKING:  # pragma: no cover - import-time cycle guard (engine imports pool)
    from repro.engine.fallback import FallbackPolicy

@dataclass(frozen=True)
class ScenarioSolution:
    """Converged primal/dual variables of one scenario solve.

    Collected (on request) so ground-truth generation can run through the same
    pooled batch-solve path as online serving.
    """

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one scenario solve.

    ``success`` / ``iterations`` / ``objective`` / ``solve_seconds`` always
    describe the first (warm) attempt; when a fallback policy recovered a
    failure, the ``fallback_*`` fields describe the recovery and the
    ``final_*`` properties select the solve that produced the final answer.
    ``solve_seconds`` is the scenario's *additive* solve cost — its share of
    the lockstep wall (shares sum to the batch wall, so they are summable).
    """

    scenario_id: int
    success: bool
    iterations: int
    objective: float
    solve_seconds: float
    worker: int = 0
    used_fallback: bool = False
    fallback_success: bool = False
    #: Summed over *every* recovery solve (a relaxed retry that degrades to a
    #: cold restart counts both), matching ``fallback_seconds``' coverage.
    iterations_fallback: int = 0
    objective_fallback: float = float("nan")
    fallback_seconds: float = 0.0
    #: Per-phase solver times of the solve that produced the final answer.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: KKT backend factorisation counters of the final solve (symbolic
    #: reuses, numeric refactorisations, block factorisations …) — the Fig. 5
    #: attribution inputs, harvested from ``OPFResult.kkt_telemetry``.
    kkt_telemetry: Dict[str, int] = field(default_factory=dict)
    #: Final primal/dual variables (present when solutions were requested).
    solution: Optional[ScenarioSolution] = None
    #: Crash/error retries of the tasks that carried this scenario (0 for a
    #: clean dispatch; includes retries of fragments it rode along in).
    retries: int = 0
    #: True when the scenario retired on a wall deadline or per-solve budget
    #: (a resource outcome — no fallback recovery is attempted).
    timed_out: bool = False
    #: True when supervision isolated this scenario as the culprit of repeated
    #: worker crashes / solver errors and retired it without a solution.
    quarantined: bool = False
    #: Description of the crash or exception that quarantined the scenario.
    error: str = ""

    @property
    def converged(self) -> bool:
        """True when either the first attempt or its fallback converged."""
        return self.success or (self.used_fallback and self.fallback_success)

    @property
    def final_iterations(self) -> int:
        """Iterations spent on the path that produced the final answer."""
        return self.iterations_fallback if self.used_fallback else self.iterations

    @property
    def final_objective(self) -> float:
        """Objective of the solve that produced the final answer."""
        return self.objective_fallback if self.used_fallback else self.objective


@dataclass
class SweepResult:
    """Aggregated outcome of a scenario sweep."""

    case_name: str
    n_workers: int
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Task failure events the supervisor observed (worker crashes plus
    #: raised worker exceptions) while dispatching this sweep.
    errors: int = 0
    #: Task retry attempts the supervisor dispatched for this sweep.
    retries: int = 0
    #: Scenarios quarantined as crash/error culprits (see
    #: ``ScenarioOutcome.quarantined``).  For :meth:`SolverFleet.solve_many`
    #: the three counters record the *joint* dispatch, repeated on each sweep.
    quarantined: int = 0
    #: Model generation that served this sweep (stamped by the engine; 0 for
    #: bare-fleet sweeps).  A request in flight across a hot-swap keeps the
    #: generation it snapshotted on entry — never a hybrid.
    model_generation: int = 0
    #: Trajectory step index when this sweep is one period of a multi-period
    #: sweep (stamped by :class:`~repro.parallel.trajectory.MultiPeriodSweep`);
    #: ``None`` for ordinary one-shot sweeps.
    period: Optional[int] = None

    @property
    def n_scenarios(self) -> int:
        """Number of solved scenarios."""
        return len(self.outcomes)

    @property
    def success_rate(self) -> float:
        """Fraction of scenarios that converged (after any fallback)."""
        return float(np.mean([o.converged for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def warm_success_rate(self) -> float:
        """Fraction of scenarios whose first (warm) attempt converged."""
        return float(np.mean([o.success for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def fallback_rate(self) -> float:
        """Fraction of scenarios that needed the fallback policy."""
        return float(np.mean([o.used_fallback for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def throughput(self) -> float:
        """Scenarios per wall-clock second."""
        return self.n_scenarios / self.wall_seconds if self.wall_seconds > 0 else float("nan")

    def total_solver_seconds(self) -> float:
        """Sum of per-scenario solver times (the serial-equivalent work)."""
        return float(sum(o.solve_seconds + o.fallback_seconds for o in self.outcomes))


# ---------------------------------------------------------------------- workers
#: Per-process worker state: populated once by :func:`_init_worker`, reused by
#: every batch the worker processes (model construction and case transfer are
#: paid once per worker, not once per batch).
_WORKER_STATE: Dict[str, object] = {}


def _build_state(
    case: Case,
    options: OPFOptions,
    fallback: "Optional[FallbackPolicy]" = None,
    collect_solutions: bool = False,
    model: Optional[OPFModel] = None,
    faults: Optional[FaultPlan] = None,
    in_subprocess: bool = False,
) -> Dict[str, object]:
    return {
        "case": case,
        "options": options,
        # The worker's one model; it owns the batched kernels every solve of
        # the worker runs on, whatever the scenario's topology.
        "model": model or OPFModel(case, flow_limits=options.flow_limits),
        "fallback": fallback,
        "collect_solutions": collect_solutions,
        "faults": faults,
        "in_subprocess": in_subprocess,
        # Tasks processed by this worker process (drives ``kill_at_task``).
        "task_count": 0,
    }


def _init_worker(
    case: Case,
    options: OPFOptions,
    fallback: "Optional[FallbackPolicy]" = None,
    collect_solutions: bool = False,
    faults: Optional[FaultPlan] = None,
) -> None:
    """Pool initializer: build the per-process OPF models once."""
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        _build_state(
            case,
            options,
            fallback,
            collect_solutions,
            faults=faults,
            in_subprocess=True,
        )
    )


def _solve_scenario(
    state: Dict[str, object],
    scenario: Scenario,
    warm: Optional[WarmStart],
    options: Optional[OPFOptions] = None,
    deadline: Optional[float] = None,
) -> OPFResult:
    """One-row solve of one scenario (the fallback-recovery solve).

    Runs on the worker's persistent model with the scenario's outage set as
    per-row data, exactly like its lockstep row: a recovered outage row keeps
    the intact network's ``µ``/``Z`` layout, and a row that takes a rated
    branch out starts ``µ``/``Z`` from solver defaults.
    """
    (result,) = solve_opf_batch(
        state["case"],
        [scenario.Pd],
        [scenario.Qd],
        warm_starts=[warm],
        options=options or state["options"],
        model=state["model"],
        deadline=deadline,
        outages=[scenario.outage_branches],
    )
    return result


def _row_deadline(deadlines: Optional[List[float]], pos: int) -> Optional[float]:
    """The scalar deadline of one row (``None`` for unbounded/absent rows)."""
    if deadlines is None:
        return None
    value = deadlines[pos]
    return None if np.isinf(value) else float(value)


def _outcome_for(
    state: Dict[str, object],
    scenario: Scenario,
    warm: Optional[WarmStart],
    worker_id: int,
    first: OPFResult,
    deadline: Optional[float] = None,
) -> ScenarioOutcome:
    """Apply the fallback policy to a first attempt and package the outcome.

    ``first`` is the scenario's row of the lockstep solve; recovery runs per
    scenario through :func:`_solve_scenario`.  A first attempt that timed out
    retires as-is — recovery would only burn more of a budget that is already
    spent — and recovery solves for ordinary failures inherit the scenario's
    deadline.
    """
    options: OPFOptions = state["options"]
    policy = state["fallback"]

    recovered: Optional[OPFResult] = None
    fallback_seconds = 0.0
    fallback_iterations = 0
    if not first.success and not first.timed_out and policy is not None:
        attempts: List[OPFResult] = []

        def solve(warm_start, solve_options=None):
            result = _solve_scenario(
                state, scenario, warm_start, solve_options, deadline=deadline
            )
            attempts.append(result)
            return result

        t0 = time.perf_counter()
        recovered = policy.recover(solve, warm, first, options)
        fallback_seconds = time.perf_counter() - t0
        if recovered is not None:
            # Charge every recovery solve (e.g. a failed relaxed retry plus
            # the cold restart), keeping iteration and wall-time accounting
            # consistent.
            fallback_iterations = (
                sum(r.iterations for r in attempts) if attempts else recovered.iterations
            )

    final = recovered if recovered is not None else first
    solution = None
    if state["collect_solutions"]:
        solution = ScenarioSolution(
            x=final.x.copy(), lam=final.lam.copy(), mu=final.mu.copy(), z=final.z.copy()
        )
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        success=first.success,
        iterations=first.iterations,
        objective=first.objective,
        solve_seconds=first.total_seconds,
        worker=worker_id,
        used_fallback=recovered is not None,
        fallback_success=bool(recovered.success) if recovered is not None else False,
        iterations_fallback=fallback_iterations,
        objective_fallback=recovered.objective if recovered is not None else float("nan"),
        fallback_seconds=fallback_seconds,
        phase_seconds=dict(final.phase_seconds),
        kkt_telemetry=dict(getattr(final, "kkt_telemetry", {}) or {}),
        solution=solution,
        timed_out=first.timed_out or (recovered is not None and recovered.timed_out),
    )


def _solve_group_in_state(
    state: Dict[str, object],
    scenarios: List[Scenario],
    warm_starts: List[Optional[WarmStart]],
    worker_id: int,
    window: Optional[int] = None,
    deadlines: Optional[List[float]] = None,
) -> List[ScenarioOutcome]:
    """Solve a scenario group in lockstep, whatever its mix of topologies.

    Every row runs on the worker's one batched model with its outage set as
    per-row data (:func:`repro.opf.batch.solve_opf_batch`, which also drops
    the warm ``µ``/``Z`` of rows that take a rated branch out).  *Every*
    group marches in lockstep — singletons included — so per-scenario
    results are one canonical set regardless of how the scheduler happened to
    cut the queue into micro-batches.  ``window`` bounds the lockstep width
    (retire-and-refill streaming); ``deadlines`` are per-row absolute wall
    deadlines (``inf`` = unbounded).  Fallback recovery stays per scenario.
    """
    firsts = solve_opf_batch(
        state["case"],
        np.stack([s.Pd for s in scenarios]),
        np.stack([s.Qd for s in scenarios]),
        warm_starts=warm_starts,
        options=state["options"],
        model=state["model"],
        window=window,
        deadline=deadlines,
        outages=[s.outage_branches for s in scenarios],
    )
    return [
        _outcome_for(
            state, scenario, warm, worker_id, first, deadline=_row_deadline(deadlines, pos)
        )
        for pos, (scenario, warm, first) in enumerate(zip(scenarios, warm_starts, firsts))
    ]


def _worker_identity() -> int:
    """This process's 1-based pool-worker index (0 in the parent process).

    Observability only (fills ``ScenarioOutcome.worker``), so the undocumented
    ``Process._identity`` is read defensively — a runtime without it simply
    reports worker 0 rather than failing the sweep.
    """
    identity = getattr(mp.current_process(), "_identity", None) or ()
    return int(identity[0]) if identity else 0


# -------------------------------------------------------------- task machinery
#: A dispatch task is a plain picklable dict:
#:
#: * ``positions`` — global sweep positions of the carried scenarios;
#: * ``scenarios`` / ``warm_starts`` — the carried work, aligned with
#:   ``positions``; every task is solved in lockstep, whatever its mix of
#:   topologies;
#: * ``worker_id`` — the worker label stamped on outcomes (``None`` = the
#:   executing process's own identity, the pooled-fleet label);
#: * ``window`` — optional lockstep window;
#: * ``attempt`` — crash-retry attempt number (0 = first dispatch), which
#:   fault plans key on;
#: * ``deadline`` — ``None`` (unbounded task) or a tuple of absolute
#:   ``time.monotonic()`` wall deadlines aligned with ``scenarios``
#:   (``inf`` entries = unbounded rows).  A scalar is also accepted and
#:   broadcast over the task's rows.


def _make_task(
    positions: Sequence[int],
    scenarios: List[Scenario],
    warm_starts: List[Optional[WarmStart]],
    worker_id: Optional[int],
    window: Optional[int],
    due: Optional[np.ndarray],
) -> Dict[str, object]:
    return {
        "positions": tuple(positions),
        "scenarios": [scenarios[i] for i in positions],
        "warm_starts": [warm_starts[i] for i in positions],
        "worker_id": worker_id,
        "window": window,
        "attempt": 0,
        "deadline": None if due is None else tuple(float(due[i]) for i in positions),
    }


def _task_deadlines(task: Dict[str, object]) -> Optional[List[float]]:
    """The task's per-row absolute deadlines (``None`` when unbounded).

    Scalars broadcast over the task's scenarios so hand-built tasks keep
    working; ``inf`` rows mean unbounded.
    """
    deadline = task["deadline"]
    if deadline is None:
        return None
    if isinstance(deadline, (int, float)):
        return [float(deadline)] * len(task["scenarios"])
    return [float(d) for d in deadline]


def _split_task(task: Dict[str, object]) -> Optional[List[Dict[str, object]]]:
    """Halve a repeatedly-failing task; ``None`` when it cannot shrink.

    Tasks march in lockstep *even as singletons*; lockstep rows are
    independent bit for bit, so any cut of a task reproduces its rows and
    surviving scenarios keep bitwise parity with a fault-free sweep.  Fragments restart the retry budget (``attempt=0``).
    """
    positions: Tuple[int, ...] = task["positions"]
    if len(positions) <= 1:
        return None
    scenarios: List[Scenario] = task["scenarios"]
    warm_starts: List[Optional[WarmStart]] = task["warm_starts"]
    deadlines = _task_deadlines(task)

    def fragment(rows: slice) -> Dict[str, object]:
        return dict(
            task,
            positions=positions[rows],
            scenarios=scenarios[rows],
            warm_starts=warm_starts[rows],
            attempt=0,
            deadline=None if deadlines is None else tuple(deadlines[rows]),
        )

    half = len(positions) // 2
    return [fragment(slice(None, half)), fragment(slice(half, None))]


def _task_worker_label(task: Dict[str, object]) -> int:
    """The worker id stamped on this task's outcomes (see ``_make_task``)."""
    worker_id = task["worker_id"]
    return _worker_identity() if worker_id is None else int(worker_id)


def _retired_outcome(
    scenario: Scenario,
    worker: int,
    message: str,
    timed_out: bool = False,
    quarantined: bool = False,
    retries: int = 0,
) -> ScenarioOutcome:
    """A structured outcome for a scenario retired without a solution."""
    return ScenarioOutcome(
        scenario_id=scenario.scenario_id,
        success=False,
        iterations=0,
        objective=float("nan"),
        solve_seconds=0.0,
        worker=worker,
        timed_out=timed_out,
        quarantined=quarantined,
        error=message,
        retries=retries,
    )


def _solve_task_in_state(
    state: Dict[str, object], task: Dict[str, object]
) -> List[ScenarioOutcome]:
    """Execute one dispatch task: faults, deadline gate, then the solve path."""
    scenarios: List[Scenario] = task["scenarios"]
    attempt: int = task["attempt"]
    plan: Optional[FaultPlan] = state.get("faults")
    if plan:
        index = int(state.get("task_count", 0))
        state["task_count"] = index + 1
        scenario_ids = [s.scenario_id for s in scenarios]
        if plan.kill_at_task_index(index) or plan.kill_for(scenario_ids, attempt):
            execute_kill(bool(state.get("in_subprocess")))
        stall = plan.stall_seconds(scenario_ids, attempt)
        if stall > 0.0:
            time.sleep(stall)
        spec = plan.raise_for(scenario_ids, attempt)
        if spec is not None:
            raise FaultInjectionError(spec.message)
    deadlines = _task_deadlines(task)
    warm_starts: List[Optional[WarmStart]] = task["warm_starts"]
    retired: Dict[int, ScenarioOutcome] = {}
    if deadlines is not None:
        # Row-wise deadline gate: a coalesced task carries rows with different
        # deadlines, so only the rows that already missed theirs retire as
        # timed out — the rest are solved with their own per-row deadlines.
        # Lockstep rows are bit-independent, so retiring a subset up front
        # leaves the surviving rows' results bitwise identical to a sweep
        # where the expired rows never existed.
        now = time.monotonic()
        worker = _task_worker_label(task)
        for pos, row_deadline in enumerate(deadlines):
            if now >= row_deadline:
                retired[pos] = _retired_outcome(
                    scenarios[pos], worker, "wall deadline exceeded", timed_out=True
                )
        if retired and len(retired) == len(scenarios):
            return [retired[pos] for pos in range(len(scenarios))]

    # Lockstep rows are bit-independent, so simply dropping the expired rows
    # keeps the survivors on their canonical numeric path.
    if retired:
        live = [pos for pos in range(len(scenarios)) if pos not in retired]
        scenarios = [scenarios[pos] for pos in live]
        warm_starts = [warm_starts[pos] for pos in live]
        deadlines = [deadlines[pos] for pos in live]
    solved = _solve_group_in_state(
        state,
        scenarios,
        warm_starts,
        _task_worker_label(task),
        window=task["window"],
        deadlines=deadlines,
    )
    if not retired:
        return solved
    outs: List[ScenarioOutcome] = []
    solved_iter = iter(solved)
    for pos in range(len(task["scenarios"])):
        outs.append(retired[pos] if pos in retired else next(solved_iter))
    return outs


def _solve_task(task: Dict[str, object]) -> List[ScenarioOutcome]:
    """Worker entry point (module-level for pickling); uses the initializer state."""
    return _solve_task_in_state(_WORKER_STATE, task)


# ------------------------------------------------------------------------ fleet
class SolverFleet:
    """A persistent fleet of solver workers for one case.

    ``n_workers == 1`` runs everything in-process (no subprocesses, optionally
    reusing a caller-provided :class:`OPFModel`); larger fleets hold a spawn
    pool whose workers stay alive across :meth:`solve` calls, so a serving
    engine pays process start-up and model construction once, not per batch.

    A sweep is cut into micro-batches (``microbatch`` scenarios each,
    auto-sized when omitted) that idle workers pull from a shared queue and
    solve in lockstep, whatever their outage sets (see
    :func:`repro.opf.batch.solve_opf_batch`); the in-process fleet solves the
    whole sweep as one group, streamed through a retire-and-refill lockstep
    window when ``microbatch`` bounds it.  Scheduling never changes *how* a
    scenario is solved: results are invariant under steal order, worker count
    and micro-batch size.

    Dispatch is supervised: a worker that dies mid-task is respawned and its
    task retried (``crash_retries`` attempts per task), then bisected until
    the culprit scenario is quarantined as a structured failed outcome —
    a sweep always returns one outcome per scenario.  ``faults`` injects
    deterministic chaos (worker kills, solver raises, stalls) for tests; see
    :mod:`repro.testing.faults`.  Per-request wall deadlines are accepted by
    :meth:`solve` / :meth:`solve_many`.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        case: Case,
        options: Optional[OPFOptions] = None,
        n_workers: int = 1,
        fallback: "Optional[FallbackPolicy]" = None,
        collect_solutions: bool = False,
        model: Optional[OPFModel] = None,
        microbatch: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        crash_retries: int = 1,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if microbatch is not None and microbatch < 1:
            raise ValueError("microbatch must be positive")
        if crash_retries < 0:
            raise ValueError("crash_retries must be non-negative")
        self.case = case
        self.options = options or OPFOptions()
        self.n_workers = n_workers
        self.fallback = fallback
        self.collect_solutions = collect_solutions
        self.microbatch = microbatch
        self.faults = faults
        self.crash_retries = crash_retries
        self._pool: Optional[SupervisedPool] = None
        self._state: Optional[Dict[str, object]] = None
        if n_workers == 1:
            self._state = _build_state(
                case, self.options, fallback, collect_solutions, model=model, faults=faults
            )
        else:
            self._pool = SupervisedPool(
                n_workers,
                initializer=_init_worker,
                initargs=(case, self.options, fallback, collect_solutions, faults),
            )

    # ------------------------------------------------------------------ solving
    @staticmethod
    def _deadline_vector(
        deadline_seconds: Optional[object],
        deadline: Optional[object],
        n_scenarios: int,
    ) -> Optional[np.ndarray]:
        """Normalise request deadlines to one absolute deadline per scenario.

        ``deadline_seconds`` (relative wall budgets) and ``deadline``
        (absolute ``time.monotonic()`` deadlines) each accept a scalar —
        broadcast over the sweep — or a per-scenario sequence; ``inf`` /
        ``nan`` entries mean unbounded.  When both are given the earlier
        deadline wins per scenario.  Returns ``None`` when no scenario is
        bounded (the unbounded fast path).
        """

        def as_vector(value: object, label: str) -> np.ndarray:
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 0:
                arr = np.full(n_scenarios, float(arr))
            elif arr.shape != (n_scenarios,):
                raise ValueError(f"{label} must be a scalar or have one entry per scenario")
            return np.where(np.isnan(arr), np.inf, arr)

        due: Optional[np.ndarray] = None
        if deadline_seconds is not None:
            budgets = as_vector(deadline_seconds, "deadline_seconds")
            if np.any(budgets[np.isfinite(budgets)] <= 0):
                raise ValueError("deadline_seconds must be positive")
            due = time.monotonic() + budgets
        if deadline is not None:
            absolute = as_vector(deadline, "deadline")
            due = absolute if due is None else np.minimum(due, absolute)
        if due is None or not np.any(np.isfinite(due)):
            return None
        return due

    def solve(
        self,
        scenario_set: ScenarioSet,
        warm_starts: Optional[List[Optional[WarmStart]]] = None,
        deadline_seconds: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> SweepResult:
        """Solve every scenario of ``scenario_set`` on the fleet.

        ``warm_starts`` is an optional per-scenario list (``None`` entries mean
        a cold start), typically produced by batched MTL inference in the
        parent process.  ``deadline_seconds`` (wall budgets for this request)
        and ``deadline`` (absolute ``time.monotonic()`` deadlines) bound the
        sweep cooperatively — each a scalar shared by the whole sweep or a
        per-scenario sequence (``inf``/``nan`` = unbounded), the shape a
        batcher needs when it coalesces requests with different budgets
        into one sweep.  Scenarios that miss their cut retire as
        ``timed_out`` outcomes instead of blocking the request.
        """
        if warm_starts is None:
            warm_starts = [None] * len(scenario_set)
        if len(warm_starts) != len(scenario_set):
            raise ValueError("warm_starts must have one entry per scenario")
        due = self._deadline_vector(deadline_seconds, deadline, len(scenario_set))

        scenarios = list(scenario_set)
        start = time.perf_counter()
        outcomes, stats = self._dispatch(scenarios, list(warm_starts), due)
        wall = time.perf_counter() - start

        sweep = SweepResult(
            case_name=self.case.name,
            n_workers=self.n_workers,
            wall_seconds=wall,
            errors=stats["errors"],
            retries=stats["retries"],
            quarantined=stats["quarantined"],
        )
        sweep.outcomes.extend(outcomes)
        sweep.outcomes.sort(key=lambda o: o.scenario_id)
        return sweep

    def solve_many(
        self,
        scenario_sets: Sequence[ScenarioSet],
        warm_starts: Optional[Sequence[Optional[List[Optional[WarmStart]]]]] = None,
        deadline_seconds: Optional[object] = None,
        deadline: Optional[object] = None,
    ) -> List[SweepResult]:
        """Solve several sweeps at once with cross-sweep contingency batching.

        The sweeps' scenarios are merged into one dispatch and cut into
        shared lockstep groups — outage-heavy SC-ACOPF screening of many
        small sweeps marches as wide batches instead of one narrow batch per
        sweep.  Per-scenario results are bit-identical to solving each sweep
        separately.

        ``warm_starts`` is an optional per-sweep sequence of per-scenario
        lists (``None`` sweeps mean all-cold).  Returns one
        :class:`SweepResult` per input sweep (outcomes sorted by scenario
        id); each records the *joint* dispatch wall — and the joint
        ``errors`` / ``retries`` / ``quarantined`` counters — so aggregate
        cost by summing per-scenario ``solve_seconds``, not walls across
        sweeps.  ``deadline_seconds`` / ``deadline`` bound the joint dispatch
        like :meth:`solve`; per-scenario sequences follow the flattened
        dispatch order (sweep 0's scenarios, then sweep 1's, …).
        """
        sets = list(scenario_sets)
        if warm_starts is None:
            warm_starts = [None] * len(sets)
        if len(warm_starts) != len(sets):
            raise ValueError("warm_starts must have one entry per scenario set")
        flat_scenarios: List[Scenario] = []
        flat_warms: List[Optional[WarmStart]] = []
        origins: List[int] = []
        for si, scenario_set in enumerate(sets):
            warm_list = warm_starts[si]
            if warm_list is None:
                warm_list = [None] * len(scenario_set)
            if len(warm_list) != len(scenario_set):
                raise ValueError(f"warm_starts[{si}] must have one entry per scenario")
            for scenario, warm in zip(scenario_set, warm_list):
                flat_scenarios.append(scenario)
                flat_warms.append(warm)
                origins.append(si)

        due = self._deadline_vector(deadline_seconds, deadline, len(flat_scenarios))
        start = time.perf_counter()
        outcomes, stats = self._dispatch(flat_scenarios, flat_warms, due)
        wall = time.perf_counter() - start

        sweeps = [
            SweepResult(
                case_name=self.case.name,
                n_workers=self.n_workers,
                wall_seconds=wall,
                errors=stats["errors"],
                retries=stats["retries"],
                quarantined=stats["quarantined"],
            )
            for _ in sets
        ]
        for outcome, origin in zip(outcomes, origins):
            sweeps[origin].outcomes.append(outcome)
        for sweep in sweeps:
            sweep.outcomes.sort(key=lambda o: o.scenario_id)
        return sweeps

    # ------------------------------------------------------------- dispatchers
    def _require_state(self) -> Dict[str, object]:
        if self._state is None:
            raise RuntimeError("fleet is closed")
        return self._state

    def _dispatch(
        self,
        scenarios: List[Scenario],
        warm_starts: List[Optional[WarmStart]],
        due: Optional[np.ndarray] = None,
    ) -> Tuple[List[ScenarioOutcome], Dict[str, int]]:
        """Cut the sweep into lockstep tasks and run them; outcomes by position.

        Multi-worker fleets submit the micro-batches to the supervised pool's
        shared task queue, and whichever worker drains its current
        micro-batch first pulls (steals) the next one.  The in-process fleet
        instead solves the whole sweep as one task.
        """
        if self._pool is None:
            # With a single in-process worker there is nobody to steal from,
            # so micro-batch boundaries are irrelevant: solve the whole
            # sweep, where a bounded lockstep window only caps how many
            # scenarios march per iteration — default to unbounded (maximum
            # amortisation) and let an explicit ``microbatch`` opt into
            # bounded retire-and-refill streaming.  Results are
            # window-invariant bit for bit either way.
            width, worker_id, window = max(len(scenarios), 1), 0, self.microbatch
        else:
            width, worker_id, window = self.microbatch, None, None
        tasks = [
            _make_task(microbatch.positions, scenarios, warm_starts, worker_id, window, due)
            for microbatch in make_microbatches(scenarios, width, self.n_workers)
        ]
        return self._run_tasks(tasks, len(scenarios))

    def _run_tasks(
        self, tasks: List[Dict[str, object]], n_scenarios: int
    ) -> Tuple[List[ScenarioOutcome], Dict[str, int]]:
        """Run dispatch tasks under supervision; one outcome per position.

        A failing task (dead worker or raised exception — including injected
        faults) is retried up to ``crash_retries`` times, then bisected by
        :func:`_split_task` until the culprit scenario is isolated and
        quarantined.  The multi-worker path consumes the supervised pool's
        event stream (crashed workers are respawned by the pool); the
        in-process path runs the identical policy inline, treating any
        exception from the solve as the failure event.
        """
        outcomes: List[Optional[ScenarioOutcome]] = [None] * n_scenarios
        stats = {"errors": 0, "retries": 0, "quarantined": 0}
        #: Retry attempts each global position has ridden along in — folded
        #: into its final outcome whichever task eventually carries it home.
        retry_counts: Dict[int, int] = {}

        def place(task: Dict[str, object], outs: List[ScenarioOutcome]) -> None:
            for pos, outcome in zip(task["positions"], outs):
                extra = retry_counts.get(pos, 0)
                if extra:
                    outcome = replace(outcome, retries=outcome.retries + extra)
                outcomes[pos] = outcome

        def on_failure(
            task: Dict[str, object], message: str
        ) -> List[Dict[str, object]]:
            """Retry, bisect or quarantine; returns the tasks to (re)dispatch."""
            stats["errors"] += 1
            if task["attempt"] < self.crash_retries:
                stats["retries"] += 1
                for pos in task["positions"]:
                    retry_counts[pos] = retry_counts.get(pos, 0) + 1
                return [dict(task, attempt=task["attempt"] + 1)]
            fragments = _split_task(task)
            if fragments is not None:
                return fragments
            scenario = task["scenarios"][0]
            pos = task["positions"][0]
            worker = task["worker_id"]
            outcomes[pos] = _retired_outcome(
                scenario,
                0 if worker is None else int(worker),
                message,
                quarantined=True,
                retries=retry_counts.get(pos, 0),
            )
            stats["quarantined"] += 1
            return []

        if self._pool is None:
            state = self._require_state()
            queue: List[Dict[str, object]] = list(tasks)
            while queue:
                task = queue.pop(0)
                try:
                    outs = _solve_task_in_state(state, task)
                except Exception as exc:  # noqa: BLE001 - the supervision boundary
                    queue.extend(on_failure(task, f"{type(exc).__name__}: {exc}"))
                else:
                    place(task, outs)
        else:
            # Hold a local reference: a cross-thread close() nulls self._pool,
            # and the terminated pool then raises PoolClosedError from
            # next_event()/submit() — the designed abort signal — rather than
            # this loop tripping over a vanished attribute.
            pool = self._pool
            inflight: Dict[int, Dict[str, object]] = {}
            for task in tasks:
                inflight[pool.submit(_solve_task, task)] = task
            while inflight:
                kind, task_id, payload = pool.next_event()
                task = inflight.pop(task_id)
                if kind == "done":
                    place(task, payload)
                    continue
                for fragment in on_failure(task, str(payload)):
                    inflight[pool.submit(_solve_task, fragment)] = fragment
        return outcomes, stats  # type: ignore[return-value]

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut the fleet down (terminates pool workers; idempotent).

        Safe to call from another thread while a sweep is in flight: the
        supervised pool's event loop then aborts the dispatch with
        :class:`~repro.parallel.supervision.PoolClosedError` instead of
        hanging on workers that no longer exist.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None
        self._state = None

    def __enter__(self) -> "SolverFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_scenario_sweep(
    case: Case,
    scenario_set: ScenarioSet,
    warm_starts: Optional[List[Optional[WarmStart]]] = None,
    n_workers: int = 1,
    options: Optional[OPFOptions] = None,
    fallback: "Optional[FallbackPolicy]" = None,
    collect_solutions: bool = False,
    model: Optional[OPFModel] = None,
    microbatch: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    crash_retries: int = 1,
    deadline_seconds: Optional[float] = None,
) -> SweepResult:
    """Solve every scenario of ``scenario_set`` using a one-shot fleet.

    Convenience wrapper over :class:`SolverFleet` for single sweeps;
    ``n_workers=1`` runs everything in-process, which is what the unit tests
    use.  Long-lived callers (the serving engine) hold a fleet instead so the
    workers persist across sweeps.
    """
    with SolverFleet(
        case,
        options=options,
        n_workers=n_workers,
        fallback=fallback,
        collect_solutions=collect_solutions,
        model=model,
        microbatch=microbatch,
        faults=faults,
        crash_retries=crash_retries,
    ) as fleet:
        return fleet.solve(scenario_set, warm_starts, deadline_seconds=deadline_seconds)
