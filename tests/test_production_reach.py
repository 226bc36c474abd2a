"""``src/repro`` ships only what production reaches.

Production is the online path (artifact → engine → fleet → lockstep MIPS),
the async server, the offline pipeline, the certificate, and the paper-figure
harness in ``examples/``, ``benchmarks/`` and ``perfbench/``.  This walks
``src/repro`` with :mod:`ast`, follows name references from those entry
points, and asserts that every public top-level definition is reached — or is
on :data:`REVIEWED` with a reason.  Reference code that only tests compare
against lives under ``tests/reference/``; deleted and moved names must stay
gone from their old ``repro`` packages.

Reach is module-resolved and class-grained: a reference reaches the
definition its import resolves to (following package re-exports), reaching a
class reaches everything in its body, and reaching any definition of a module
reaches that module's import-time statements.  ``__all__`` lists and
re-exports are not references.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HARNESS = ("examples", "benchmarks", "perfbench")

#: Production entry points, as (module, name).  ``SmartPGSim`` stands for its
#: ``offline`` / ``online_evaluate`` phases.
ENTRY_POINTS = (
    ("repro.engine", "load_artifact"),
    ("repro.engine", "WarmStartEngine"),
    ("repro.serving", "AsyncServer"),
    ("repro.core", "SmartPGSim"),
    ("repro.data", "generate_dataset"),
    ("repro.opf", "solve_opf"),
    ("repro.opf", "solve_opf_batch"),
    ("repro.parallel", "SolverFleet"),
    ("repro.opf", "certify_opf"),
)

_SCENARIO_FAMILY = (
    "the N-k scenario builder; ROADMAP item 5(c) gives generate_contingency_set a production sweep"
)

#: Public definitions production does not reach, each with its reason.  They
#: count as roots too: what a reviewed definition needs is kept with it.
REVIEWED: Dict[Tuple[str, str], str] = {
    ("repro.parallel.scenarios", "generate_contingency_set"): _SCENARIO_FAMILY,
    ("repro.nn.schedulers", "StepLR"): "the scheduler MTLTrainer.scheduler is documented with",
    ("repro.testing.faults", "kill_worker"): "builds a FaultSpec the fleet's workers execute",
    ("repro.testing.faults", "kill_at_task"): "builds a FaultSpec the fleet's workers execute",
    ("repro.testing.faults", "raise_in_solver"): "builds a FaultSpec the fleet's workers execute",
    ("repro.testing.faults", "stall_solve"): "builds a FaultSpec the fleet's workers execute",
}

_LOSSES = ("CharbonnierLoss", "MSELoss", "L1Loss", "mse", "l1")
_SCHEDULERS = ("ExponentialLR", "CosineAnnealingLR")
_LOADS = ("nominal_load", "scaled_load", "stressed_area_load")
_POWERFLOW = ("dc_nominal_flows", "dIbr_dV", "bus_injection_batch", "branch_flows")
_TEST_FAULTS = ("corrupt_artifact_bytes", "swap_fault")
_SWAP_FAULTS = ("SWAP_STAGES", "SwapFaultSpec", "LifecycleFaultPlan")
_HEALTH = (
    "CircuitBreaker",
    "HealthWindow",
    "DRIFT_STATUSES",
    "DriftDetector",
    "DriftMonitor",
    "DriftReport",
    "PageHinkley",
    "RollingTrend",
    "SignalReport",
    "default_detectors",
    "ModelLifecycle",
    "PromotionResult",
    "ShadowGate",
    "ShadowMetrics",
    "ShadowReport",
)
_STATE_FILES = ("save_state_dict", "load_state_dict")
_STREAMS = ("CorrelatedLoadSampler", "sample_load_trajectory")
_TRAJECTORIES = ("MultiPeriodSweep", "TrajectoryResult", "chained_warm_start", "trajectory_steps")
_POOL_VIEWS = ("SupervisedPool.pending", "SupervisedPool.closed")
#: The KKT solve's pattern cache and its inverted step-rule control: the
#: lockstep plan owns the analysis, ``mips_batch`` runs the cascade on the
#: report's ``resolve``, and the one-system solve moved to the tests.
_KKT_CASCADE = (
    "KKTSolveError",
    "_SYM_CACHE",
    "_SYM_LOCK",
    "_SYM_CACHE_MAX",
    "_symbolic_for_pattern",
    "_Factored",
    "LDLSolver.solve",
    "LDLSolver._symbolic",
    "LDLSolver._solve_with_recovery",
    "LDLSolver._resolve",
    "LDLSolver._correct",
    "LDLSolver._callback",
    "BlockSolveReport.corrected",
)

#: What the fleet repeated of other layers: the merged-sweep entry, the
#: row-wise deadline gate and the scheduler module's cut (the crash-retry
#: keyword is pinned in ``test_removed_knobs.py``).
_MICROBATCH_CUT = ("auto_microbatch_size", "make_microbatches")
_FLEET_REPEATS = (
    "SolverFleet.solve_many",
    "SolverFleet._deadline_vector",
    "SolverFleet._dispatch",
    "Task.worker_id",
    "WorkerState._solve",
    "_retired_outcome",
    "_quarantined_outcome",
)
#: Methods no production path reached (the reach test is class-grained, so
#: it passed them).
_CASE_VIEWS = (
    "Case.pq_bus_indices",
    "Case.pv_bus_indices",
    "Case.total_load",
    "Case.summary",
    "Case.total_gen_capacity",
)
_DATASET_FILES = ("OPFDataset.save", "OPFDataset.load")

#: The engine's model-state properties, replaced by the retrieval table
#: (``ServingModel``'s fields are pinned in ``test_removed_knobs.py``).
_SERVED_NETWORK = ("WarmStartEngine.network", "WarmStartEngine.normalizer", "WarmStartEngine.config")

#: Names deleted from, or moved out of, ``repro`` (and the test-side builders
#: that served deleted code): none may import from its old place.  A dotted
#: name is an attribute of a class that must be gone.
GONE: Dict[str, Tuple[str, ...]] = {
    "repro.core": ("normalized_series", "DirectPredictionReport.summary"),
    "repro.core.baselines": ("DirectPredictionReport.summary",),
    "repro.core.metrics": ("normalized_series",),
    "repro.data": _DATASET_FILES,
    "repro.data.dataset": _DATASET_FILES,
    "repro.engine": (*_HEALTH, *_SERVED_NETWORK, "OnlineRecord.online_seconds"),
    "repro.engine.engine": (*_HEALTH, *_SERVED_NETWORK),
    "repro.engine.artifact": ("_MODEL_TYPES", "_normalizer_from_arrays"),
    "repro.engine.records": ("OnlineRecord.online_seconds",),
    "repro.grid": (
        "register_case",
        "case_to_matpower",
        "available_cases",
        "iter_load_samples",
        *_LOADS,
        *_STREAMS,
        *_CASE_VIEWS,
    ),
    "repro.grid.cases": ("register_case", "available_cases"),
    "repro.grid.components": _CASE_VIEWS,
    "repro.grid.io": ("case_to_matpower", "BUS_COLUMNS", "GEN_COLUMNS", "BRANCH_COLUMNS"),
    "repro.grid.perturb": ("iter_load_samples", *_LOADS, *_STREAMS),
    "repro.grid.synthetic": ("scaled_family",),
    "repro.mips": (
        "mips",
        "qps_mips",
        "FactorizedSolver",
        "KKTSolver",
        "make_kkt_solver",
        "available_kkt_solvers",
        "solver_telemetry",
        "KKTSolveError",
        "MIPSResult.summary",
    ),
    "repro.mips.ldl": _KKT_CASCADE,
    "repro.mips.batch": ("_Centring.rhs", "_Centring.fallback", "_STEP_FAILURES"),
    "repro.mips.result": ("MIPSResult.summary",),
    "repro.mtl": (
        "MAIN_TASKS",
        "AUXILIARY_TASKS",
        "MinMaxScaler.dim",
        "TrainingHistory.losses",
        "SmartPGSimMTL.describe",
    ),
    "repro.mtl.normalization": ("MinMaxScaler.dim",),
    "repro.mtl.model": ("MAIN_TASKS", "AUXILIARY_TASKS", "SmartPGSimMTL.describe"),
    "repro.mtl.trainer": ("TrainingHistory.losses",),
    "repro.nn": (
        *_LOSSES,
        *_SCHEDULERS,
        *_STATE_FILES,
        "SGD",
        "Softplus",
        "save_module",
        "load_module",
        "stack_scalars",
        "Tensor.numpy",
    ),
    "repro.nn.losses": _LOSSES,
    "repro.nn.modules": ("Softplus",),
    "repro.nn.optim": ("SGD",),
    "repro.nn.schedulers": _SCHEDULERS,
    "repro.nn.serialization": ("save_module", "load_module", *_STATE_FILES),
    "repro.nn.tensor": ("stack_scalars", "Tensor.numpy"),
    "repro.opf": (
        "hessian_blocks",
        "lagrangian_hessian",
        "OPFOptions",
        "WarmStart.cold",
        "WarmStart.with_noise",
    ),
    "repro.opf.warmstart": ("WarmStart.cold", "WarmStart.with_noise"),
    "repro.parallel": (
        "calibrate_from_inference",
        "run_scenario_sweep",
        "ScenarioSolution",
        "topology_key",
        *_TRAJECTORIES,
        *_POOL_VIEWS,
        *_MICROBATCH_CUT,
        "SolverFleet.solve_many",
    ),
    "repro.parallel.scenarios": ("topology_key",),
    "repro.parallel.pool": ("run_scenario_sweep", "ScenarioSolution", *_MICROBATCH_CUT, *_FLEET_REPEATS),
    "repro.parallel.cluster": ("calibrate_from_inference",),
    "repro.parallel.supervision": (*_POOL_VIEWS, "_POLL_SECONDS", "_LOST_TASK_GRACE_SECONDS"),
    "repro.powerflow": (
        *_POWERFLOW,
        "newton_power_flow",
        "PowerFlowResult",
        "d2Sbus_dV2",
        "d2Sbr_dV2",
        "d2ASbr_dV2",
    ),
    "repro.powerflow.dc": ("dc_nominal_flows",),
    "repro.powerflow.derivatives": ("dIbr_dV",),
    "repro.powerflow.injections": ("bus_injection_batch", "branch_flows"),
    "repro.testing": (*_TEST_FAULTS, *_SWAP_FAULTS),
    "repro.testing.faults": (*_TEST_FAULTS, *_SWAP_FAULTS, "_KILL_GRACE_SECONDS"),
    "repro.utils": ("spawn_rngs", "Timer", "timed", "CachedBmat"),
    "repro.utils.planes": ("Targets.cached_rows",),
    "repro.utils.rng": ("spawn_rngs", "derive_seed"),
    "repro.utils.sparse": ("csr_from_template", "csc_from_template", "CachedBmat", "same_pattern"),
    "reference.faults": ("swap_fault",),
}

#: Modules moved under ``tests/reference/`` or deleted whole.
GONE_MODULES: Tuple[str, ...] = (
    "repro.engine.drift",
    "repro.engine.fallback",
    "repro.engine.lifecycle",
    "repro.mips.linsolve",
    "repro.mips.qp",
    "repro.mips.solver",
    "repro.opf.hessian",
    "repro.opf.options",
    "repro.parallel.scheduler",
    "repro.parallel.trajectory",
    "repro.powerflow.hessians",
    "repro.powerflow.newton",
    "repro.utils.timing",
)

Key = Tuple[str, str]


class _Module:
    """One ``src/repro`` module: its top-level definitions and imports."""

    def __init__(self, name: str, tree: ast.Module) -> None:
        self.name = name
        self.defs: Dict[str, list] = {}
        #: Local name -> (module, attribute); attribute ``None`` for a module.
        self.imports: Dict[str, Tuple[str, Optional[str]]] = {}
        self.body: list = []
        for node in ast.walk(tree):  # ``src/repro`` imports are absolute
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = (alias.name, None)
                    else:
                        top = alias.name.partition(".")[0]
                        self.imports[top] = (top, None)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (node.module or "", alias.name)
        for stmt in tree.body:
            names = _defined_names(stmt)
            if names:
                for defined in names:
                    self.defs.setdefault(defined, []).append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.body.append(stmt)


def _defined_names(stmt: ast.stmt) -> Tuple[str, ...]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return (stmt.name,)
    if isinstance(stmt, ast.Assign):
        names = tuple(n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name))
        return () if names == ("__all__",) else names
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return (stmt.target.id,)
    return ()


def _load_modules() -> Dict[str, _Module]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules[name] = _Module(name, ast.parse(path.read_text()))
    return modules


class _Reach:
    def __init__(self, modules: Dict[str, _Module]) -> None:
        self.modules = modules
        self.reached: Set[Key] = set()
        self.modules_run: Set[str] = set()

    def resolve(self, module: str, name: str, seen: Tuple = ()) -> Optional[object]:
        """``(module, definition)``, a module name, or ``None`` (not ``repro``)."""
        if (module, name) in seen or module not in self.modules:
            return None
        mod = self.modules[module]
        if name in mod.defs:
            return (module, name)
        if name in mod.imports:
            target, attr = mod.imports[name]
            if attr is None:
                return target if target in self.modules else None
            found = self.resolve(target, attr, seen + ((module, name),))
            if found is None and f"{target}.{attr}" in self.modules:
                return f"{target}.{attr}"
            return found
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        return None

    def visit(self, module: str, nodes) -> Iterator[Key]:
        """Definitions referenced from ``nodes`` in ``module``'s namespace."""
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        yield from self._target(module, alias.asname or alias.name, ())
                elif isinstance(sub, ast.Name):
                    yield from self._target(module, sub.id, ())
                elif isinstance(sub, ast.Attribute):
                    chain = []
                    value = sub
                    while isinstance(value, ast.Attribute):
                        chain.append(value.attr)
                        value = value.value
                    if isinstance(value, ast.Name):
                        yield from self._target(module, value.id, tuple(reversed(chain)))

    def _target(self, module: str, name: str, attrs: Tuple[str, ...]) -> Iterator[Key]:
        found = self.resolve(module, name)
        for attr in attrs:
            if not isinstance(found, str):
                break
            found = self.resolve(found, attr)
        if isinstance(found, tuple):
            yield found

    def run(self, roots) -> Set[Key]:
        stack = list(roots)
        while stack:
            key = stack.pop()
            if key in self.reached:
                continue
            self.reached.add(key)
            module, name = key
            stack.extend(self.visit(module, self.modules[module].defs[name]))
            if module not in self.modules_run:
                self.modules_run.add(module)
                stack.extend(self.visit(module, self.modules[module].body))
        return self.reached


def _harness_roots(reach: _Reach) -> Iterator[Key]:
    """Every ``repro`` name the paper-figure harness imports."""
    for folder in HARNESS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                    for alias in node.names:
                        found = reach.resolve(node.module, alias.name)
                        if isinstance(found, tuple):
                            yield found


def _production_reach(with_reviewed: bool = True) -> Tuple[Dict[str, _Module], Set[Key]]:
    modules = _load_modules()
    reach = _Reach(modules)
    roots = [reach.resolve(module, name) for module, name in ENTRY_POINTS]
    assert all(isinstance(root, tuple) for root in roots), roots
    roots += _harness_roots(reach)
    if with_reviewed:
        roots += list(REVIEWED)
    return modules, reach.run(roots)


def _public_definitions(modules: Dict[str, _Module]) -> Set[Key]:
    return {
        (module.name, name)
        for module in modules.values()
        for name in module.defs
        if not name.startswith("_")
    }


def test_every_public_definition_is_reached_or_reviewed():
    modules, reached = _production_reach()
    unreached = sorted(_public_definitions(modules) - reached - set(REVIEWED))
    assert not unreached, "unreached public definitions:\n" + "\n".join(
        f"  {module}.{name}" for module, name in unreached
    )


def test_reviewed_entries_are_live_and_still_unreached():
    modules, reached = _production_reach(with_reviewed=False)
    stale = {key for key in REVIEWED if key not in _public_definitions(modules) or key in reached}
    assert not stale, f"REVIEWED entries to drop: {sorted(stale)}"
    assert all(reason.strip() for reason in REVIEWED.values())


def _has(owner: object, dotted: str) -> bool:
    head, _, rest = dotted.partition(".")
    if not hasattr(owner, head):
        return False
    return not rest or _has(getattr(owner, head), rest)


@pytest.mark.parametrize("module", sorted(GONE))
def test_gone_names_are_not_importable(module):
    imported = importlib.import_module(module)
    present = [name for name in GONE[module] if _has(imported, name)]
    assert not present, (module, present)
    assert not set(GONE[module]) & set(getattr(imported, "__all__", ()))


@pytest.mark.parametrize("module", GONE_MODULES)
def test_gone_modules_are_not_importable(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
