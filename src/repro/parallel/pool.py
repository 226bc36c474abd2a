"""Process-pool scenario runner and the persistent solver fleet.

The SC-ACOPF scenario sweep is embarrassingly parallel: each worker receives a
batch of scenarios, pairs them with warm starts produced by batched MTL
inference in the parent and solves them independently.  This module
distributes that sweep over CPU processes — the same scatter → compute →
gather structure as the paper's multi-GPU data parallelism, with processes
standing in for GPUs.

Two types carry the work.  A :class:`Task` is one unit of dispatch: some rows
of a sweep (scenarios, warm starts, per-row deadlines) solved together in
lockstep.  A :class:`WorkerState` is what a worker keeps across tasks — the
case, the solver options and one :class:`~repro.opf.model.OPFModel` — built
once per spawned process by the pool initializer, or once by the in-process
fleet.  A :class:`SolverFleet` keeps the workers alive across sweeps, which
is what the serving engine uses to amortise process start-up over many
requests.  Everything that varies per request — warm starts, absolute per-row
deadlines, whether converged solutions come back (the offline dataset sweep
asks for them) — is an argument of the call and rides on its tasks, so one
fleet serves every kind of request.

A sweep runs one way.  It is cut into micro-batches in input order
(:mod:`repro.parallel.scheduler`), and every micro-batch is solved in lockstep
through :func:`repro.opf.batch.solve_opf_batch`.  Branch outages are per-row
data of that solve, so the scenarios of every N-k topology share one lockstep
batch and the worker model's one :class:`~repro.opf.batch.BatchedOPFModel`.
Multi-worker fleets submit the micro-batches, auto-sized by
:func:`~repro.parallel.scheduler.auto_microbatch_size`, to the supervised
pool, which sends each, in order, to the next idle worker; the in-process
fleet solves the whole sweep as one task.  :meth:`SolverFleet.solve` is the
one-sweep case of :meth:`SolverFleet.solve_many`, whose sweeps merge into one
dispatch.
Lockstep solves are row-independent bit for bit, so per-scenario results are
invariant under chunking, which worker takes which task, worker count and
micro-batch size.

A failed warm row is recovered in-worker the paper's way: re-solved cold,
with the same options, outage set and deadline.  All of a task's recoveries
run as one lockstep call on the worker's model after the task's first solve
(:meth:`WorkerState._solve`); cold rows are never re-solved.

Dispatch is *supervised* (:mod:`repro.parallel.supervision`): a task whose
worker dies (or whose solve raises) is retried with a bounded budget, then
**bisected** (:meth:`Task.split`) until the culprit scenario is isolated and
quarantined as a structured failed outcome.  Per-row wall deadlines ride on
the task and reach the solver's cooperative between-iteration checks; rows
already expired at dispatch retire as ``timed_out`` without perturbing the
rest.  Deterministic chaos for all of this comes from an optional
:class:`~repro.testing.faults.FaultPlan` held by the worker state.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.components import Case
from repro.mips.options import MIPSOptions
from repro.opf.batch import solve_opf_batch
from repro.opf.model import OPFModel
from repro.opf.result import OPFResult
from repro.opf.warmstart import WarmStart
from repro.parallel.scenarios import Scenario, ScenarioSet
from repro.parallel.scheduler import make_microbatches
from repro.parallel.supervision import SupervisedPool
from repro.testing.faults import FaultInjectionError, FaultPlan, execute_kill


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one scenario solve.

    ``success`` / ``iterations`` / ``objective`` / ``solve_seconds`` always
    describe the first (warm) attempt; when a failed warm attempt was
    re-solved cold, the ``fallback_*`` fields describe that restart and the
    ``final_*`` properties select the solve that produced the final answer.
    ``solve_seconds`` and ``fallback_seconds`` are *additive* solve costs —
    each row's share of its lockstep wall (shares sum to the batch wall, so
    they are summable).
    """

    scenario_id: int
    success: bool
    iterations: int
    objective: float
    solve_seconds: float
    worker: int = 0
    used_fallback: bool = False
    fallback_success: bool = False
    iterations_fallback: int = 0
    objective_fallback: float = float("nan")
    fallback_seconds: float = 0.0
    #: Per-phase solver times of the solve that produced the final answer.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: KKT-solve counters of the final solve (numeric refactorisations,
    #: block factorisations, refinement solves …) — the Fig. 5 attribution
    #: inputs, harvested from ``OPFResult.kkt_telemetry``.
    kkt_telemetry: Dict[str, int] = field(default_factory=dict)
    #: Final primal/dual variables (present when the call asked for
    #: ``solutions``) — a precise warm start for a nearby problem.
    solution: Optional[WarmStart] = None
    #: Crash/error retries of the tasks that carried this scenario (0 for a
    #: clean dispatch; includes retries of fragments it rode along in).
    retries: int = 0
    #: True when the scenario retired on its wall deadline (a resource
    #: outcome — no fallback recovery is attempted).
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
        """Fraction of scenarios whose warm attempt was re-solved cold."""
        return float(np.mean([o.used_fallback for o in self.outcomes])) if self.outcomes else 0.0

    @property
    def throughput(self) -> float:
        """Scenarios per wall-clock second."""
        return self.n_scenarios / self.wall_seconds if self.wall_seconds > 0 else float("nan")

    def total_solver_seconds(self) -> float:
        """Sum of per-scenario solver times (the serial-equivalent work)."""
        return float(sum(o.solve_seconds + o.fallback_seconds for o in self.outcomes))


# ------------------------------------------------------------------------ tasks
@dataclass(frozen=True)
class Task:
    """One unit of dispatch: rows of a sweep solved together in lockstep.

    ``positions`` are the rows' places in the flat dispatch (not scenario ids,
    which may collide across merged sweeps); ``scenarios``, ``warm_starts``
    and ``deadlines`` are aligned with them.  ``worker_id`` labels the
    outcomes (``None``: the executing process's pool identity).
    ``attempt`` counts crash retries; fault plans key on it.  ``deadlines``
    holds absolute ``time.monotonic()`` deadlines (``inf`` for an unbounded
    row), or is ``None`` when no row is bounded.
    ``solutions`` ships each row's converged variables back on its outcome.
    """

    positions: Tuple[int, ...]
    scenarios: Tuple[Scenario, ...]
    warm_starts: Tuple[Optional[WarmStart], ...]
    worker_id: Optional[int] = None
    attempt: int = 0
    deadlines: Optional[Tuple[float, ...]] = None
    solutions: bool = False

    def rows(self, keep: Sequence[int]) -> "Task":
        """A first-attempt task of rows ``keep`` (indices into this task)."""
        return replace(
            self,
            positions=tuple(self.positions[i] for i in keep),
            scenarios=tuple(self.scenarios[i] for i in keep),
            warm_starts=tuple(self.warm_starts[i] for i in keep),
            attempt=0,
            deadlines=None if self.deadlines is None else tuple(self.deadlines[i] for i in keep),
        )

    def split(self) -> Optional[List["Task"]]:
        """Halve a repeatedly failing task; ``None`` once it is one row.

        Tasks march in lockstep *even as singletons*, and lockstep rows are
        independent bit for bit, so any cut reproduces its rows and surviving
        scenarios keep bitwise parity with a fault-free sweep.  Fragments
        restart the retry budget.
        """
        n = len(self.positions)
        if n <= 1:
            return None
        return [self.rows(range(n // 2)), self.rows(range(n // 2, n))]


def _worker_identity() -> int:
    """This process's 1-based pool-worker index (0 in the parent process).

    Observability only (fills ``ScenarioOutcome.worker``), so the undocumented
    ``Process._identity`` is read defensively — a runtime without it simply
    reports worker 0 rather than failing the sweep.
    """
    identity = getattr(mp.current_process(), "_identity", None) or ()
    return int(identity[0]) if identity else 0


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


# ---------------------------------------------------------------------- workers
@dataclass
class WorkerState:
    """What one worker keeps across tasks.

    ``model`` is the worker's one OPF model (built from ``case`` when not
    given): it owns the batched kernels every solve of the worker runs on,
    whatever the scenario's topology.  ``tasks_run`` counts the tasks this
    worker executed, which ``kill_at_task`` faults key on.
    """

    case: Case
    options: MIPSOptions
    faults: Optional[FaultPlan] = None
    in_subprocess: bool = False
    model: Optional[OPFModel] = None
    tasks_run: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.model is None:
            self.model = OPFModel(self.case)

    def run(self, task: Task) -> List[ScenarioOutcome]:
        """Execute one task: injected faults, the deadline gate, then the solve."""
        if self.faults:
            self._inject_faults(task)
        worker = _worker_identity() if task.worker_id is None else task.worker_id
        if task.deadlines is None:
            return self._solve(task, worker)
        # Row-wise deadline gate: a coalesced task carries rows with different
        # deadlines, so only the rows that already missed theirs retire as
        # timed out.  Lockstep rows are bit-independent, so dropping them
        # leaves the survivors bitwise identical to a sweep where the expired
        # rows never existed.
        now = time.monotonic()
        live = [i for i, due in enumerate(task.deadlines) if now < due]
        if len(live) == len(task.positions):
            return self._solve(task, worker)
        solved = iter(self._solve(task.rows(live), worker) if live else ())
        return [
            next(solved)
            if now < due
            else _retired_outcome(scenario, worker, "wall deadline exceeded", timed_out=True)
            for scenario, due in zip(task.scenarios, task.deadlines)
        ]

    def _inject_faults(self, task: Task) -> None:
        index = self.tasks_run
        self.tasks_run += 1
        scenario_ids = [s.scenario_id for s in task.scenarios]
        if self.faults.kill_at_task_index(index) or self.faults.kill_for(scenario_ids, task.attempt):
            execute_kill(self.in_subprocess)
        stall = self.faults.stall_seconds(scenario_ids, task.attempt)
        if stall > 0.0:
            time.sleep(stall)
        spec = self.faults.raise_for(scenario_ids, task.attempt)
        if spec is not None:
            raise FaultInjectionError(spec.message)

    def _solve(self, task: Task, worker: int) -> List[ScenarioOutcome]:
        """Solve the task's rows in lockstep, then re-solve its failed warm rows cold.

        *Every* task marches in lockstep — singletons included — so
        per-scenario results are one canonical set regardless of how the
        scheduler cut the queue.  A row that had a warm start, failed and did
        not time out is recovered the paper's way: re-solved from the solver
        default with the same options, outage set and deadline.  All of a
        task's recoveries run as one more lockstep call, and lockstep rows
        are bit-independent, so each equals its row's one-row cold solve.  A
        cold row is never re-solved (that would repeat the same solve), and a
        timed-out row retires as-is — recovery would only burn more of a
        budget that is already spent.
        """
        firsts = self._lockstep(task, task.warm_starts)
        failed = [
            i
            for i, (warm, first) in enumerate(zip(task.warm_starts, firsts))
            if warm is not None and not first.success and not first.timed_out
        ]
        recovered: Dict[int, OPFResult] = {}
        if failed:
            recovered = dict(zip(failed, self._lockstep(task.rows(failed), None)))
        return [
            self._outcome(scenario, worker, first, recovered.get(i), task.solutions)
            for i, (scenario, first) in enumerate(zip(task.scenarios, firsts))
        ]

    def _lockstep(
        self, task: Task, warm_starts: Optional[Sequence[Optional[WarmStart]]]
    ) -> List[OPFResult]:
        """One lockstep solve of the task's rows on the worker's model."""
        return solve_opf_batch(
            self.case,
            np.stack([s.Pd for s in task.scenarios]),
            np.stack([s.Qd for s in task.scenarios]),
            warm_starts=warm_starts,
            options=self.options,
            model=self.model,
            deadline=task.deadlines,
            outages=[s.outage_branches for s in task.scenarios],
        )

    def _outcome(
        self,
        scenario: Scenario,
        worker: int,
        first: OPFResult,
        recovered: Optional[OPFResult],
        solutions: bool,
    ) -> ScenarioOutcome:
        """Package a row's first attempt and its cold restart, if it had one."""
        final = first if recovered is None else recovered
        solution = None
        if solutions:
            solution = WarmStart(
                x=final.x.copy(), lam=final.lam.copy(), mu=final.mu.copy(), z=final.z.copy()
            )
        return ScenarioOutcome(
            scenario_id=scenario.scenario_id,
            success=first.success,
            iterations=first.iterations,
            objective=first.objective,
            solve_seconds=first.total_seconds,
            worker=worker,
            used_fallback=recovered is not None,
            fallback_success=recovered is not None and bool(recovered.success),
            iterations_fallback=0 if recovered is None else recovered.iterations,
            objective_fallback=float("nan") if recovered is None else recovered.objective,
            fallback_seconds=0.0 if recovered is None else recovered.total_seconds,
            phase_seconds=dict(final.phase_seconds),
            kkt_telemetry=dict(final.kkt_telemetry),
            solution=solution,
            timed_out=final.timed_out,
        )


#: This process's worker state, set by :func:`_init_worker` in spawned workers.
_WORKER: Optional[WorkerState] = None


def _init_worker(case: Case, options: MIPSOptions, faults: Optional[FaultPlan] = None) -> None:
    """Pool initializer: build the worker state (and its OPF model) once."""
    global _WORKER
    _WORKER = WorkerState(case, options, faults, in_subprocess=True)


def _solve_task(task: Task) -> List[ScenarioOutcome]:
    """Worker entry point (module-level for pickling)."""
    return _WORKER.run(task)


# ------------------------------------------------------------------------ fleet
class SolverFleet:
    """A persistent fleet of solver workers for one case.

    ``n_workers == 1`` runs everything in-process (no subprocesses, optionally
    reusing a caller-provided :class:`OPFModel`); larger fleets hold a spawn
    pool whose workers stay alive across :meth:`solve` calls, so a serving
    engine pays process start-up and model construction once, not per batch.
    A case that :class:`OPFModel` rejects raises at construction, before any
    worker spawns, whatever the worker count.

    A pooled fleet cuts a sweep into auto-sized micro-batches
    (:func:`~repro.parallel.scheduler.make_microbatches`) that the pool hands
    to idle workers one at a time, each solved in lockstep whatever its
    outage sets (see :func:`repro.opf.batch.solve_opf_batch`); the
    in-process fleet solves the whole sweep as one lockstep task.
    Scheduling never changes *how* a scenario is solved: results are
    invariant under which worker takes which task, worker count and
    micro-batch size.

    Dispatch is supervised: a worker that dies mid-task is respawned and its
    task retried (``crash_retries`` attempts per task), then bisected until
    the culprit scenario is quarantined as a structured failed outcome —
    a sweep always returns one outcome per scenario.  ``faults`` injects
    deterministic chaos (worker kills, solver raises, stalls) for tests; see
    :mod:`repro.testing.faults`.  Per-row wall deadlines and whether to ship
    converged solutions back are properties of each :meth:`solve` /
    :meth:`solve_many` call, so one fleet serves every kind of request.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        case: Case,
        options: Optional[MIPSOptions] = None,
        n_workers: int = 1,
        model: Optional[OPFModel] = None,
        faults: Optional[FaultPlan] = None,
        crash_retries: int = 1,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if crash_retries < 0:
            raise ValueError("crash_retries must be non-negative")
        self.case = case
        self.options = options or MIPSOptions()
        self.n_workers = n_workers
        self.faults = faults
        self.crash_retries = crash_retries
        self._pool: Optional[SupervisedPool] = None
        self._state: Optional[WorkerState] = None
        # The model validates the case here, before any worker spawns, so a
        # case it rejects raises the same error at every worker count.
        model = OPFModel(case) if model is None else model
        if n_workers == 1:
            self._state = WorkerState(case, self.options, faults, model=model)
        else:
            self._pool = SupervisedPool(
                n_workers,
                initializer=_init_worker,
                initargs=(case, self.options, faults),
            )

    # ------------------------------------------------------------------ solving
    @staticmethod
    def _deadline_vector(deadline: Optional[object], n_scenarios: int) -> Optional[np.ndarray]:
        """Normalise ``deadline`` to one absolute deadline per scenario.

        ``deadline`` is on the ``time.monotonic()`` clock: a scalar broadcast
        over the sweep or a per-scenario sequence; ``+inf`` / ``nan`` entries
        mean unbounded, and a deadline already in the past retires its row.
        Returns ``None`` when no scenario is bounded (the unbounded fast path).
        """
        if deadline is None:
            return None
        due = np.asarray(deadline, dtype=float)
        if due.ndim == 0:
            due = np.full(n_scenarios, float(due))
        elif due.shape != (n_scenarios,):
            raise ValueError("deadline must be a scalar or have one entry per scenario")
        due = np.where(np.isnan(due), np.inf, due)
        return None if np.all(due == np.inf) else due

    def solve(
        self,
        scenario_set: ScenarioSet,
        warm_starts: Optional[List[Optional[WarmStart]]] = None,
        deadline: Optional[object] = None,
        solutions: bool = False,
    ) -> SweepResult:
        """Solve every scenario of ``scenario_set`` on the fleet.

        ``warm_starts`` is an optional per-scenario list (``None`` entries mean
        a cold start), typically the engine's retrieval starts or the MTL's
        predictions, computed in the parent process.  ``deadline`` (absolute ``time.monotonic()``
        deadlines) bounds the sweep cooperatively — a scalar shared by the
        whole sweep or a per-scenario sequence (``inf``/``nan`` = unbounded),
        the shape a batcher needs when it coalesces requests with different
        budgets into one sweep.  Scenarios that miss their cut retire as
        ``timed_out`` outcomes instead of blocking the request.
        ``solutions=True`` returns each scenario's converged variables on
        ``ScenarioOutcome.solution``.
        """
        return self.solve_many(
            [scenario_set], [warm_starts], deadline=deadline, solutions=solutions
        )[0]

    def solve_many(
        self,
        scenario_sets: Sequence[ScenarioSet],
        warm_starts: Optional[Sequence[Optional[List[Optional[WarmStart]]]]] = None,
        deadline: Optional[object] = None,
        solutions: bool = False,
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
        sweeps.  ``deadline`` bounds the joint dispatch and ``solutions``
        applies to it like :meth:`solve`; a per-scenario deadline sequence
        follows the flattened dispatch order (sweep 0's scenarios, then
        sweep 1's, …).
        """
        sets = list(scenario_sets)
        if warm_starts is None:
            warm_starts = [None] * len(sets)
        if len(warm_starts) != len(sets):
            raise ValueError("warm_starts must have one entry per scenario set")
        flat_scenarios: List[Scenario] = []
        flat_warms: List[Optional[WarmStart]] = []
        origins: List[int] = []
        for si, (scenario_set, warm_list) in enumerate(zip(sets, warm_starts)):
            if warm_list is None:
                warm_list = [None] * len(scenario_set)
            if len(warm_list) != len(scenario_set):
                raise ValueError(f"warm_starts[{si}] must have one entry per scenario")
            flat_scenarios.extend(scenario_set)
            flat_warms.extend(warm_list)
            origins.extend([si] * len(scenario_set))

        due = self._deadline_vector(deadline, len(flat_scenarios))
        start = time.perf_counter()
        joint = self._dispatch(flat_scenarios, flat_warms, due, solutions)
        joint.wall_seconds = time.perf_counter() - start

        per_sweep: List[List[ScenarioOutcome]] = [[] for _ in sets]
        for outcome, origin in zip(joint.outcomes, origins):
            per_sweep[origin].append(outcome)
        return [
            replace(joint, outcomes=sorted(outcomes, key=lambda o: o.scenario_id))
            for outcomes in per_sweep
        ]

    # ------------------------------------------------------------- dispatchers
    def _dispatch(
        self,
        scenarios: List[Scenario],
        warm_starts: List[Optional[WarmStart]],
        due: Optional[np.ndarray],
        solutions: bool,
    ) -> SweepResult:
        """Cut the sweep into lockstep tasks and run them; outcomes by position.

        Multi-worker fleets submit the micro-batches to the supervised pool,
        which sends the next one to whichever worker finishes its current
        micro-batch first.  The in-process fleet instead solves the whole
        sweep as one task.
        """
        sweep = Task(
            positions=tuple(range(len(scenarios))),
            scenarios=tuple(scenarios),
            warm_starts=tuple(warm_starts),
            worker_id=0 if self._pool is None else None,
            deadlines=None if due is None else tuple(float(d) for d in due),
            solutions=solutions,
        )
        if self._pool is None:
            # One in-process worker has nobody to share with: the whole sweep
            # is one lockstep task.
            tasks = [sweep] if scenarios else []
        else:
            tasks = [sweep.rows(cut) for cut in make_microbatches(scenarios, self.n_workers)]
        return self._run_tasks(tasks, len(scenarios))

    def _run_tasks(self, tasks: List[Task], n_scenarios: int) -> SweepResult:
        """Run dispatch tasks under supervision; one outcome per position.

        A failing task (dead worker or raised exception — including injected
        faults) is retried up to ``crash_retries`` times, then bisected by
        :meth:`Task.split` until the culprit scenario is isolated and
        quarantined.  The multi-worker path consumes the supervised pool's
        event stream (crashed workers are respawned by the pool); the
        in-process path runs the identical policy inline, treating any
        exception from the solve as the failure event.  The returned sweep
        carries the failure counters; its wall is the caller's to stamp.
        """
        joint = SweepResult(case_name=self.case.name, n_workers=self.n_workers)
        outcomes: List[Optional[ScenarioOutcome]] = [None] * n_scenarios
        #: Retry attempts each global position has ridden along in — folded
        #: into its final outcome whichever task eventually carries it home.
        retry_counts: Dict[int, int] = {}

        def place(task: Task, outs: List[ScenarioOutcome]) -> None:
            for pos, outcome in zip(task.positions, outs):
                extra = retry_counts.get(pos, 0)
                if extra:
                    outcome = replace(outcome, retries=outcome.retries + extra)
                outcomes[pos] = outcome

        def on_failure(task: Task, message: str) -> List[Task]:
            """Retry, bisect or quarantine; returns the tasks to (re)dispatch."""
            joint.errors += 1
            if task.attempt < self.crash_retries:
                joint.retries += 1
                for pos in task.positions:
                    retry_counts[pos] = retry_counts.get(pos, 0) + 1
                return [replace(task, attempt=task.attempt + 1)]
            fragments = task.split()
            if fragments is not None:
                return fragments
            pos = task.positions[0]
            outcomes[pos] = _retired_outcome(
                task.scenarios[0],
                task.worker_id or 0,
                message,
                quarantined=True,
                retries=retry_counts.get(pos, 0),
            )
            joint.quarantined += 1
            return []

        if self._pool is None:
            state = self._state
            if state is None:
                raise RuntimeError("fleet is closed")
            queue = list(tasks)
            while queue:
                task = queue.pop(0)
                try:
                    outs = state.run(task)
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
            inflight: Dict[int, Task] = {}
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
        joint.outcomes = outcomes  # type: ignore[assignment]
        return joint

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
