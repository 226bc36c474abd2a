"""One way to run a sweep, one KKT interface: the retired switches stay retired.

``execution=``, ``schedule=`` and ``kkt_factor_threads=`` selected paths that
lost every recorded comparison and were removed outright — no deprecation
shim, no ``**kwargs`` sink.  This pins that every public entry point rejects
them (and the ``Scenario.outage_branch`` compat view) with ``TypeError``.
The KKT layer's retirees follow the same rule: the ``"blockdiag"`` /
``"spsolve"`` backends, ``MIPSOptions.kkt_refine_steps``,
``solve_blocks(direct=)``, ``solve_many`` / ``resolve`` and the engine's
``kkt_solver=`` shortcut for ``opf_options=``.  So do the serving tier's
timers: ``AsyncServer`` flushes whenever its executor is free, and
``max_wait_seconds`` / ``deadline_slack_seconds`` are gone.  And the solver
has one core: the scalar MIPS loop, its KKT assembler and structure caches,
``solve_opf_batch(batched=)`` and ``build_model`` are gone.  And a result
travels one typed path: dispatch tasks and worker state are dataclasses, an
``OnlineRecord`` wraps its ``ScenarioOutcome`` instead of copying its
fields, the fallback-solve twin of ``solve_opf`` and the compat re-exports
are gone.  And recovery is one fixed rule: a failed warm row is re-solved
cold, so the ``fallback=`` policy selector, its policy classes, registry and
``relaxed_options`` are gone.  And parameters no caller passed are
constants: the dual floor of ``WarmStart.clipped_duals``, the supervised
pool's start method, poll interval and lost-task grace, and
``generate_dataset``'s keep-failed switch.  And the dispatch surface below
``AsyncServer`` takes each request property in one form: an absolute
``deadline=`` (no ``deadline_seconds=`` below the server, no
``MIPSOptions.max_wall_seconds``), a per-call ``solutions=`` (no fleet-wide
``collect_solutions``, so one fleet per worker count), no ``microbatch=``
anywhere, and no wrapper that repeats the code it calls.  And ``perfbench`` is the one performance system: the
paper-figure suite in ``benchmarks/`` imports no clock, reads no environment
knob and takes no timing fixture.  And the engine keeps no reactive health
state: ``breaker=`` and ``drift_monitor=`` are gone with the circuit breaker,
the drift monitor and the model lifecycle, and ``hot_swap`` is the one way to
publish a model.  And the Newton systems have one solve: ``MIPSOptions`` has
no ``kkt_solver`` / ``kkt_reg`` / ``kkt_max_retries``, ``LDLSolver`` takes no
parameter but the plan's symbolic analysis, ``solve_blocks`` takes no
template and no corrector (the MIPS loop runs the predictor–corrector
cascade on the factor handle it returns), the SuperLU reference and the
one-system solve live in the tests, and a
``LockstepPlan`` is the only way to describe a problem to ``mips_batch``.
And the OPF problem is fixed: no ``OPFOptions``, no flow-limit or start-point
mode, and ``MIPSOptions`` holds only the iteration cap — the tolerances and
step parameters are constants, ``cost_mult`` is gone from the solve and the
Hessian callback, history is always recorded, and the sparse structure caches
are gone.  And the engine serves one start, the nearest training solutions:
it holds no network, normalizer or MTL configuration, so neither its
constructor nor ``hot_swap`` takes them, and there is no switch back to MTL
inference.  And a scenario is one period of independently drawn loads: the
multi-period trajectory driver, ``serve_trajectory`` and the correlated load
streams are gone, so ``generate_dataset`` takes no ``sampler=`` or
``stream_batch=``.  And a lockstep call enrolls its rows once: the
retire-and-refill feed (``BatchFeedPayload``, ``mips_batch(feed=,
feed_capacity=)``), ``solve_opf_batch(window=)``, ``SolverFleet(microbatch=)``,
``Task.window`` and the ``MicroBatch`` wrapper are gone.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import SmartPGSimConfig
from repro.data import generate_dataset
from repro.engine.artifact import load_artifact
from repro.engine.engine import WarmStartEngine
from repro.engine.retrieval import NearestSolutions
from reference.kkt import FactorizedSolver
from repro.mips import LDLSolver, LDLSymbolic, MIPSOptions, mips_batch
from repro.parallel import Scenario, SolverFleet
from repro.serving import AsyncServer

REMOVED = ("execution", "schedule", "kkt_factor_threads", "factor_threads", "fallback")

ENTRY_POINTS = [
    SolverFleet,
    WarmStartEngine,
    WarmStartEngine.from_trainer,
    load_artifact,
    generate_dataset,
    SmartPGSimConfig,
    FactorizedSolver,
    LDLSolver,
    MIPSOptions,
]


@pytest.mark.parametrize("callee", ENTRY_POINTS, ids=lambda c: c.__qualname__)
def test_entry_point_has_no_retired_keyword(callee):
    params = inspect.signature(callee).parameters
    assert not set(REMOVED) & set(params)
    assert not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


@pytest.mark.parametrize("keyword", REMOVED)
def test_retired_keyword_raises_type_error(case9_fixture, trained_trainer9, tmp_path, keyword):
    calls = [
        lambda kw: SolverFleet(case9_fixture, **kw),
        lambda kw: WarmStartEngine(
            case9_fixture, NearestSolutions.from_dataset(trained_trainer9.dataset), **kw
        ),
        lambda kw: WarmStartEngine.from_trainer(trained_trainer9, **kw),
        lambda kw: load_artifact(tmp_path / "a.npz", case9_fixture, **kw),
        lambda kw: generate_dataset(case9_fixture, 2, **kw),
        lambda kw: SmartPGSimConfig(**kw),
        lambda kw: FactorizedSolver(**kw),
        lambda kw: LDLSolver(**kw),
        lambda kw: MIPSOptions(**kw),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=keyword):
            call({keyword: 1})


def test_scenario_has_no_single_outage_view():
    with pytest.raises(TypeError, match="outage_branch"):
        Scenario(0, np.zeros(3), np.zeros(3), outage_branch=1)
    assert not hasattr(Scenario(0, np.zeros(3), np.zeros(3)), "outage_branch")


# ------------------------------------------------------------- the KKT layer
def test_retired_mips_option_and_engine_shortcut_raise_type_error(case9_fixture, trained_trainer9):
    with pytest.raises(TypeError, match="kkt_refine_steps"):
        MIPSOptions(kkt_refine_steps=1)
    with pytest.raises(TypeError, match="kkt_solver"):
        WarmStartEngine(
            case9_fixture, NearestSolutions.from_dataset(trained_trainer9.dataset),
            kkt_solver="factorized",
        )
    with pytest.raises(TypeError, match="kkt_solver"):
        WarmStartEngine.from_trainer(trained_trainer9, kkt_solver="factorized")


@pytest.mark.parametrize(
    "call, keyword",
    [
        (lambda: MIPSOptions(kkt_solver="factorized"), "kkt_solver"),
        (lambda: MIPSOptions(kkt_reg=1e-8), "kkt_reg"),
        (lambda: MIPSOptions(kkt_max_retries=3), "kkt_max_retries"),
        (lambda: LDLSolver(ordering="natural"), "ordering"),
        (lambda: LDLSolver(regularization=1e-8), "regularization"),
        (lambda: mips_batch(None, np.zeros((1, 2)), jg_template=None), "jg_template"),
    ],
    ids=["kkt_solver", "kkt_reg", "kkt_max_retries", "ordering", "regularization", "jg_template"],
)
def test_one_kkt_solve_and_one_problem_form(call, keyword):
    with pytest.raises(TypeError, match=keyword):
        call()


@pytest.mark.parametrize("keyword", ["max_wait_seconds", "deadline_slack_seconds"])
def test_async_server_has_no_flush_timer(keyword):
    # Keyword binding fails before the constructor body reads the engine.
    with pytest.raises(TypeError, match=keyword):
        AsyncServer(None, **{keyword: 0.005})
    params = inspect.signature(AsyncServer).parameters
    assert keyword not in params
    assert not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


@pytest.mark.parametrize("backend", [FactorizedSolver, LDLSolver])
def test_backend_interface_is_solve_blocks_only(backend):
    symbolic = LDLSymbolic.analyse(sp.csc_matrix(np.eye(2)))
    with pytest.raises(TypeError, match="direct"):
        backend(symbolic).solve_blocks(np.ones((1, 2)), np.ones((1, 2)), direct=True)
    for retired in ("resolve", "solve_many", "supports_blocks", "solve"):
        assert not hasattr(backend, retired)
    params = list(inspect.signature(backend.solve_blocks).parameters)
    assert params == ["self", "data_plane", "rhs_plane", "tol"]


def test_kkt_solve_has_no_cache_and_no_corrector_callbacks():
    """The plan owns the one symbolic analysis and the MIPS loop owns the
    step cascade: no pattern cache, reuse counter, corrector callback or
    right-hand-side clock is left in the solve."""
    import repro.mips
    import repro.mips.ldl as ldl

    solver = LDLSolver(LDLSymbolic.analyse(sp.csc_matrix(np.eye(2))))
    report = solver.solve_blocks(np.ones((1, 2)), np.ones((1, 2)))
    for name in ("symbolic_reuses", "rhs_seconds", "factor_seconds", "backsolve_seconds"):
        assert not hasattr(solver, name), name
    assert "symbolic_reuses" not in solver.telemetry()
    assert not hasattr(report, "corrected")
    assert not hasattr(ldl, "_SYM_CACHE") and not hasattr(repro.mips, "KKTSolveError")


def test_one_solver_core(case9_fixture):
    import repro.opf
    import repro.utils.sparse
    from reference import mips_solver
    from repro.opf import solve_opf_batch

    with pytest.raises(TypeError, match="batched"):
        solve_opf_batch(
            case9_fixture, case9_fixture.bus.Pd[None], case9_fixture.bus.Qd[None], batched=None
        )
    assert not hasattr(repro.opf, "build_model")
    for name in ("CachedTranspose", "cached_vstack_csr"):
        assert not hasattr(repro.utils.sparse, name)
    for name in ("_KKTAssembler", "_BoundHandler", "_conditions", "_is_converged"):
        assert not hasattr(mips_solver, name)


def _private_functions(module):
    return {n for n, v in vars(module).items() if n.startswith("_") and inspect.isfunction(v)}


def test_one_record_chain():
    import repro.core.framework
    import repro.engine.engine
    import repro.opf
    import repro.parallel.pool
    from repro.engine.records import OnlineRecord

    with pytest.raises(TypeError, match="iterations_warm"):
        OnlineRecord(iterations_warm=3)
    assert not hasattr(repro.core.framework, "OnlineRecord")
    # The surfaces are pinned whole, so no retired helper can come back: one
    # cold-restart path (the worker's lockstep recovery), task and worker-state
    # helpers folded into ``Task`` / ``WorkerState``, no prediction wrapper.
    assert {n for n in dir(repro.opf) if n.startswith("solve_opf")} == {
        "solve_opf",
        "solve_opf_batch",
    }
    assert _private_functions(repro.parallel.pool) == {
        "_worker_identity",
        "_retired_outcome",
        "_init_worker",
        "_solve_task",
    }
    assert _private_functions(repro.engine.engine) == set()


def test_one_recovery_rule():
    import repro.engine
    import repro.engine.engine
    import repro.opf

    retired = (
        "FallbackPolicy",
        "ColdRestartFallback",
        "RelaxedWarmRetryFallback",
        "BudgetedFallback",
        "NoFallback",
        "FALLBACK_POLICIES",
        "get_fallback_policy",
        "PERSISTED_FALLBACK",
    )
    for module in (repro.engine, repro.engine.engine):
        for name in retired:
            assert not hasattr(module, name), (module.__name__, name)
    assert not set(retired) & set(repro.engine.__all__)
    assert not hasattr(repro.opf, "relaxed_options")


@pytest.mark.parametrize(
    "keyword, stamp", [("breaker", "fallback_trips"), ("drift_monitor", "drift_status")]
)
def test_engine_has_no_health_hooks(case9_fixture, trained_trainer9, keyword, stamp):
    from repro.engine.records import OnlineRecord

    with pytest.raises(TypeError, match=keyword):
        WarmStartEngine(
            case9_fixture, NearestSolutions.from_dataset(trained_trainer9.dataset),
            **{keyword: None},
        )
    with pytest.raises(TypeError, match=keyword):
        WarmStartEngine.from_trainer(trained_trainer9, **{keyword: None})
    engine = WarmStartEngine.from_trainer(trained_trainer9)
    for name in (keyword, "adopt_artifact", "drift_report", "_observe", "_degraded"):
        assert not hasattr(engine, name), name
    with pytest.raises(TypeError, match=stamp):
        OnlineRecord(None, 0.0, 0.0, 0.0, 0.0, **{stamp: 0})



def test_unpassed_parameters_are_constants():
    from repro.data.dataset import generate_dataset
    from repro.opf.batch import _warm_component
    from repro.opf.warmstart import WarmStart
    from repro.parallel.supervision import SupervisedPool

    retired = {
        WarmStart.clipped_duals: ("floor",),
        _warm_component: ("floor",),
        SupervisedPool: ("context", "poll_interval", "lost_task_grace"),
        generate_dataset: ("drop_failures",),
    }
    for callee, names in retired.items():
        params = inspect.signature(callee).parameters
        assert not set(names) & set(params), callee.__qualname__
        assert not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


def test_one_dispatch_surface():
    import repro.parallel
    import repro.parallel.pool
    from repro.data.dataset import OPFDataset
    from repro.mips.result import MIPSResult
    from repro.mtl import DatasetNormalizer
    from repro.nn.tensor import Tensor
    from repro.opf.result import OPFResult
    from repro.opf.warmstart import WarmStart
    from repro.parallel.pool import WorkerState, _init_worker

    # One deadline form below the server: absolute ``deadline=`` only.
    for callee in (
        SolverFleet.solve,
        SolverFleet.solve_many,
        WarmStartEngine.serve,
        WarmStartEngine.serve_loads,
        WarmStartEngine.evaluate,
    ):
        params = inspect.signature(callee).parameters
        assert "deadline" in params and "deadline_seconds" not in params, callee.__qualname__
        with pytest.raises(TypeError, match="deadline_seconds"):
            callee(None, [], deadline_seconds=1.0)
    # The relative form that stays: the client's budget.
    assert "deadline_seconds" in inspect.signature(AsyncServer.submit).parameters
    with pytest.raises(TypeError, match="max_wall_seconds"):
        MIPSOptions(max_wall_seconds=0.5)
    assert not hasattr(MIPSOptions(), "max_wall_seconds")

    # Solutions are a per-call property, so an engine keeps one fleet per width.
    for callee in (SolverFleet.solve, SolverFleet.solve_many):
        assert inspect.signature(callee).parameters["solutions"].default is False
    with pytest.raises(TypeError, match="collect_solutions"):
        SolverFleet(None, collect_solutions=True)
    with pytest.raises(TypeError, match="collect_solutions"):
        WorkerState(None, None, collect_solutions=True)
    assert list(inspect.signature(_init_worker).parameters) == ["case", "options", "faults"]
    for owner, name in (
        (WarmStartEngine, "trajectory_fleet"),
        (repro.parallel, "ScenarioSolution"),
        (repro.parallel.pool, "ScenarioSolution"),
    ):
        with pytest.raises(AttributeError):
            getattr(owner, name)

    # Micro-batches are auto-sized; nothing takes a width.
    assert "microbatch" not in inspect.signature(SolverFleet).parameters
    for call in (
        lambda: SolverFleet(None, microbatch=2),
        lambda: SmartPGSimConfig(microbatch=2),
        lambda: WarmStartEngine(None, None, None, microbatch=2),
        lambda: WarmStartEngine.from_trainer(None, microbatch=2),
        lambda: load_artifact(None, None, microbatch=2),
        lambda: generate_dataset(None, 1, microbatch=2),
    ):
        with pytest.raises(TypeError, match="microbatch"):
            call()

    # No wrapper repeats the code it calls, and no method lacks a caller.
    for owner, name in (
        (repro.parallel, "run_scenario_sweep"),
        (repro.parallel.pool, "run_scenario_sweep"),
        (WarmStartEngine, "load_artifact"),
        (WarmStart, "from_mips_result"),
        (DatasetNormalizer, "denormalize_predictions"),
        (Tensor, "softplus"),
        (MIPSResult, "eflag"),
        (MIPSResult, "final_conditions"),
        (OPFResult, "dispatch_summary"),
        (WarmStart, "split_x"),
        (WarmStart, "is_cold"),
        (OPFDataset, "n_features"),
    ):
        with pytest.raises(AttributeError):
            getattr(owner, name)


#: Every ``MIPSOptions`` field except the iteration cap, now constants or gone.
RETIRED_MIPS_FIELDS = (
    "feastol",
    "gradtol",
    "comptol",
    "costtol",
    "xi",
    "sigma",
    "z0",
    "cost_mult",
    "bound_eq_tol",
    "max_stepsize",
    "record_history",
    "verbose",
)


def test_one_fixed_opf_problem(case9_fixture):
    import repro.opf
    from repro.core.convergence import capture_convergence_traces
    from repro.core.sensitivity import run_sensitivity_study
    from repro.mips import LockstepPlan
    from repro.opf import BatchedOPFModel, OPFModel, certify_opf

    assert [f.name for f in dataclasses.fields(MIPSOptions)] == ["max_it"]
    for name in RETIRED_MIPS_FIELDS:
        with pytest.raises(TypeError, match=name):
            MIPSOptions(**{name: 1})
    for call, keyword in (
        (lambda: OPFModel(case9_fixture, flow_limits="S"), "flow_limits"),
        (lambda: certify_opf(None, None, options=None), "options"),
        (lambda: generate_dataset(None, 1, options=None), "options"),
        (lambda: capture_convergence_traces(None, options=None), "options"),
        (lambda: run_sensitivity_study(None, options=None), "options"),
        (lambda: SmartPGSimConfig(opf=None), "opf"),
        (lambda: WarmStartEngine.from_trainer(None, opf_options=None), "opf_options"),
        (lambda: load_artifact(None, None, opf_options=None), "opf_options"),
        (lambda: BatchedOPFModel.hessian(None, None, None, None, cost_mult=1.0), "cost_mult"),
        (lambda: LockstepPlan(1, None, None, None, bound_eq_tol=1e-10), "bound_eq_tol"),
    ):
        with pytest.raises(TypeError, match=keyword):
            call()
    # The engine's ``opf_options`` (read by perfbench) is the MIPSOptions.
    assert "opf_options" in inspect.signature(WarmStartEngine).parameters
    assert not hasattr(repro.opf, "OPFOptions")
    model = OPFModel(case9_fixture)
    for name in ("flow_limits", "flat_start", "_pb_jac_cache", "_flow_jac_cache"):
        assert not hasattr(model, name), name
    assert not hasattr(BatchedOPFModel, "lockstep_plan")
    assert not hasattr(model.batched.plan, "bound_eq_tol")


def test_the_engine_serves_no_network(case9_fixture, trained_trainer9):
    network, normalizer, config = (
        trained_trainer9.network, trained_trainer9.normalizer, trained_trainer9.config
    )
    with pytest.raises(TypeError, match="NearestSolutions"):
        WarmStartEngine(case9_fixture, network, normalizer)
    with pytest.raises(TypeError, match="config"):
        WarmStartEngine(case9_fixture, network, normalizer, config=config)
    engine = WarmStartEngine.from_trainer(trained_trainer9)
    with pytest.raises(TypeError):
        engine.hot_swap(network, normalizer, config)
    with pytest.raises(TypeError, match="NearestSolutions"):
        engine.hot_swap(network)
    assert list(inspect.signature(WarmStartEngine.hot_swap).parameters) == ["self", "starts"]
    assert [f.name for f in dataclasses.fields(engine._serving)] == ["starts", "generation"]
    for name in ("network", "normalizer", "config"):
        assert not hasattr(engine, name), name
    # One serving path: nothing selects MTL inference over retrieval.
    for callee in (WarmStartEngine, WarmStartEngine.serve, WarmStartEngine.from_trainer, load_artifact):
        params = set(inspect.signature(callee).parameters)
        assert not {"model", "predictor", "network", "use_mtl", "mode"} & params, callee


def test_one_scenario_family(case9_fixture):
    from repro.parallel.pool import SweepResult

    for keyword in ("sampler", "stream_batch"):
        with pytest.raises(TypeError, match=keyword):
            generate_dataset(case9_fixture, 2, **{keyword: None})
    with pytest.raises(AttributeError):
        WarmStartEngine.serve_trajectory
    assert "period" not in {f.name for f in dataclasses.fields(SweepResult)}


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("path", sorted(BENCHMARKS.glob("*.py")), ids=lambda p: p.name)
def test_paper_figure_suite_reads_no_clock(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert "time" not in {alias.name for alias in node.names}, path.name
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "time", path.name
            if node.module == "os":
                assert "environ" not in {alias.name for alias in node.names}, path.name
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert (node.value.id, node.attr) != ("os", "environ"), path.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = {a.arg for a in node.args.args + node.args.kwonlyargs}
            assert not args & {"benchmark", "perf_recorder"}, f"{path.name}::{node.name}"


def test_one_lockstep_entry():
    import repro.mips
    import repro.parallel
    from repro.opf import solve_opf_batch
    from repro.parallel.pool import Task
    from repro.parallel.scheduler import make_microbatches

    for callee, keyword in (
        (mips_batch, "feed"),
        (mips_batch, "feed_capacity"),
        (solve_opf_batch, "window"),
        (SolverFleet, "microbatch"),
        (Task, "window"),
        (make_microbatches, "microbatch"),
    ):
        assert keyword not in inspect.signature(callee).parameters
        with pytest.raises(TypeError, match=keyword):
            callee(None, None, **{keyword: 1})
    for owner, name in (
        (repro.mips, "BatchFeedPayload"),
        (repro.mips, "BatchFeedFn"),
        (repro.mips.batch, "BatchFeedPayload"),
        (repro.mips.batch, "BatchFeedFn"),
        (repro.parallel, "MicroBatch"),
        (repro.parallel.scheduler, "MicroBatch"),
    ):
        assert not hasattr(owner, name), name
