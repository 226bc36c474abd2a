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

A sweep runs one way.  A pooled fleet cuts it in input order into one
micro-batch per worker (:func:`_microbatches`), the widest lockstep each
worker can run, and hands each to an idle worker of the supervised pool; the
in-process fleet solves the whole sweep as one task.  A hopeless row does not
hold its task back: the solver retires it ``infeasible`` within ~15
iterations.  Every task is solved in lockstep through
:func:`repro.opf.batch.solve_opf_batch`.  Branch outages are per-row data of
that solve, so the scenarios of every N-k topology share one lockstep batch
and the worker model's one :class:`~repro.opf.batch.BatchedOPFModel`.
Lockstep solves are row-independent bit for bit, so per-scenario results are
invariant under chunking, which worker takes which task, worker count and
micro-batch size.

A failed warm row is recovered in-worker the paper's way: re-solved cold,
with the same options, outage set and deadline.  All of a task's recoveries
run as one lockstep call on the worker's model after the task's first solve
(:meth:`WorkerState.run`); cold rows are never re-solved.

Dispatch is *supervised* (:mod:`repro.parallel.supervision`): a task whose
worker dies (or whose solve raises) is retried :data:`_CRASH_RETRIES` times,
then **bisected** (:meth:`Task.split`) until the culprit scenario is isolated
and quarantined as a structured failed outcome.  Per-row wall deadlines ride
on the task to the solver, which alone compares them with the clock: an
expired row retires as ``timed_out`` before its first iteration (after its
entry evaluation) without perturbing the rest.  Deterministic chaos for all
of this comes from an optional :class:`~repro.testing.faults.FaultPlan` held
by the worker state.
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
    #: True when the solve that produced the final answer retired on the
    #: infeasibility verdict (a warm row judged infeasible is still re-solved
    #: cold, and keeps the flag only if its cold restart is judged so too).
    infeasible: bool = False
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
    #: ``ScenarioOutcome.quarantined``).
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
#: Crash / error retries of a failing task before it is bisected.
_CRASH_RETRIES = 1

def _microbatches(n_scenarios: int, n_workers: int) -> List[range]:
    """A pooled sweep's tasks: ``n_workers`` consecutive ranges of
    ``ceil(n_scenarios / n_workers)`` positions (fewer when there are fewer
    scenarios than workers), in input order.

    One task per worker is the widest lockstep the pool can run, and a
    lockstep iteration's fixed cost is paid once per task whatever its
    width.  No finer cut is needed against
    stragglers: a hopeless row retires ``infeasible`` within ~15 iterations
    (:mod:`repro.mips.batch`), so no row holds its task much beyond the
    others.  Outage sets play no part, and per-scenario results do not
    depend on the cut.
    """
    size = max(1, -(-n_scenarios // n_workers))
    return [range(start, min(start + size, n_scenarios)) for start in range(0, n_scenarios, size)]


@dataclass(frozen=True)
class Task:
    """One unit of dispatch: rows of a sweep solved together in lockstep.

    ``positions`` are the rows' places in the sweep (not scenario ids, which
    may repeat); ``scenarios``, ``warm_starts`` and ``deadlines`` are aligned
    with them.  ``attempt`` counts crash retries; fault plans key on it.
    ``deadlines`` holds one absolute ``time.monotonic()`` deadline per row
    (``inf`` or ``nan`` for an unbounded row), or is ``None`` when the call
    set none; the solver compares them with the clock.  ``solutions`` ships
    each row's converged variables back on its outcome.
    """

    positions: Tuple[int, ...]
    scenarios: Tuple[Scenario, ...]
    warm_starts: Tuple[Optional[WarmStart], ...]
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
        """Execute one task: injected faults, a lockstep solve of its rows,
        then one cold re-solve of its failed warm rows.

        *Every* task marches in lockstep — singletons included — so
        per-scenario results are one canonical set regardless of how the
        sweep was cut.  A row that had a warm start, failed and did not time
        out is recovered the paper's way: re-solved from the solver default
        with the same options, outage set and deadline.  All of a task's
        recoveries run as one more lockstep call, and lockstep rows are
        bit-independent, so each equals its row's one-row cold solve.  A
        cold row is never re-solved (that would repeat the same solve), and a
        timed-out row retires as-is — recovery would only burn more of a
        budget that is already spent.
        """
        if self.faults:
            self._inject_faults(task)
        worker = _worker_identity()
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
            infeasible=final.infeasible,
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

    A pooled fleet cuts a sweep into one micro-batch per worker
    (:func:`_microbatches`), each handed to an idle worker and solved in
    lockstep whatever its outage sets (see
    :func:`repro.opf.batch.solve_opf_batch`); the in-process fleet solves the
    whole sweep as one lockstep task.  Scheduling never changes *how* a
    scenario is solved: results are invariant under which worker takes which
    task, worker count and micro-batch size.

    Dispatch is supervised: a worker that dies mid-task is respawned and its
    task retried (:data:`_CRASH_RETRIES` times), then bisected until the
    culprit scenario is quarantined as a structured failed outcome — a sweep
    always returns one outcome per scenario.  ``faults`` injects
    deterministic chaos (worker kills, solver raises, stalls) for tests; see
    :mod:`repro.testing.faults`.  Per-row wall deadlines and whether to ship
    converged solutions back are properties of each :meth:`solve` call, so
    one fleet serves every kind of request.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        case: Case,
        options: Optional[MIPSOptions] = None,
        n_workers: int = 1,
        model: Optional[OPFModel] = None,
        faults: Optional[FaultPlan] = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        self.case = case
        self.options = options or MIPSOptions()
        self.n_workers = n_workers
        self.faults = faults
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
        predictions, computed in the parent process.  ``deadline`` bounds the
        sweep cooperatively: absolute ``time.monotonic()`` deadlines, a
        scalar shared by the whole sweep or a per-scenario sequence
        (``inf``/``nan`` = unbounded), the shape a batcher needs when it
        coalesces requests with different budgets into one sweep.  The
        solver checks them before every iteration; a scenario that misses its
        cut retires as a ``timed_out`` outcome instead of blocking the
        request (before its first iteration if it is already past, unless
        its start passes every termination test at entry).
        ``solutions=True`` returns each scenario's converged variables on
        ``ScenarioOutcome.solution``.  Outcomes come back sorted by scenario
        id; a batcher that concatenates requests renumbers them onto
        positions (see :class:`repro.serving.AsyncServer`).
        """
        scenarios = tuple(scenario_set)
        n = len(scenarios)
        if warm_starts is None:
            warm_starts = [None] * n
        if len(warm_starts) != n:
            raise ValueError("warm_starts must have one entry per scenario")
        deadlines = None
        if deadline is not None:
            # One value per row, so that ``Task.rows`` can slice it; the
            # solver alone compares it with the clock.
            due = np.asarray(deadline, dtype=float)
            if due.ndim and due.shape != (n,):
                raise ValueError("deadline must be a scalar or have one entry per scenario")
            deadlines = tuple(np.broadcast_to(due, (n,)).tolist())
        start = time.perf_counter()
        sweep = Task(
            positions=tuple(range(n)),
            scenarios=scenarios,
            warm_starts=tuple(warm_starts),
            deadlines=deadlines,
            solutions=solutions,
        )
        if self._pool is None:
            # One in-process worker has nobody to share with: the whole sweep
            # is one lockstep task.
            tasks = [sweep] if n else []
        else:
            tasks = [sweep.rows(cut) for cut in _microbatches(n, self.n_workers)]
        result = self._run_tasks(tasks, n)
        result.wall_seconds = time.perf_counter() - start
        result.outcomes.sort(key=lambda o: o.scenario_id)
        return result

    # ------------------------------------------------------------- dispatchers
    def _run_tasks(self, tasks: List[Task], n_scenarios: int) -> SweepResult:
        """Run dispatch tasks under supervision; one outcome per position.

        A failing task (dead worker or raised exception — including injected
        faults) is retried up to :data:`_CRASH_RETRIES` times, then bisected
        by :meth:`Task.split` until the culprit scenario is isolated and
        quarantined.  The multi-worker path consumes the supervised pool's
        event stream (crashed workers are respawned by the pool); the
        in-process path runs the identical policy inline, treating any
        exception from the solve as the failure event.  The returned sweep
        carries the failure counters; its wall is the caller's to stamp.
        """
        joint = SweepResult(case_name=self.case.name, n_workers=self.n_workers)
        outcomes: List[Optional[ScenarioOutcome]] = [None] * n_scenarios
        #: Retry attempts each position has ridden along in — folded into its
        #: final outcome whichever task eventually carries it home.
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
            if task.attempt < _CRASH_RETRIES:
                joint.retries += 1
                for pos in task.positions:
                    retry_counts[pos] = retry_counts.get(pos, 0) + 1
                return [replace(task, attempt=task.attempt + 1)]
            fragments = task.split()
            if fragments is not None:
                return fragments
            pos = task.positions[0]
            outcomes[pos] = ScenarioOutcome(
                scenario_id=task.scenarios[0].scenario_id,
                success=False,
                iterations=0,
                objective=float("nan"),
                solve_seconds=0.0,
                quarantined=True,
                error=message,
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
