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
``solve_opf_batch(batched=)`` and ``build_model`` are gone.
"""

import inspect

import numpy as np
import pytest

from repro.core import SmartPGSimConfig
from repro.data import generate_dataset
from repro.engine.artifact import load_artifact
from repro.engine.engine import WarmStartEngine
from repro.mips import FactorizedSolver, LDLSolver, MIPSOptions
from repro.parallel import Scenario, SolverFleet, run_scenario_sweep
from repro.serving import AsyncServer

REMOVED = ("execution", "schedule", "kkt_factor_threads", "factor_threads")

ENTRY_POINTS = [
    SolverFleet,
    run_scenario_sweep,
    WarmStartEngine,
    WarmStartEngine.from_trainer,
    WarmStartEngine.load_artifact,
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
        lambda kw: run_scenario_sweep(case9_fixture, [], **kw),
        lambda kw: WarmStartEngine(
            case9_fixture, trained_trainer9.network, trained_trainer9.normalizer, **kw
        ),
        lambda kw: WarmStartEngine.from_trainer(trained_trainer9, **kw),
        lambda kw: WarmStartEngine.load_artifact(tmp_path / "a.npz", case9_fixture, **kw),
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
            case9_fixture, trained_trainer9.network, trained_trainer9.normalizer,
            kkt_solver="factorized",
        )
    with pytest.raises(TypeError, match="kkt_solver"):
        WarmStartEngine.from_trainer(trained_trainer9, kkt_solver="factorized")


@pytest.mark.parametrize("name", ["blockdiag", "spsolve"])
def test_retired_backend_name_is_rejected_naming_the_survivors(name):
    with pytest.raises(ValueError, match=r"\('factorized', 'ldl'\)"):
        MIPSOptions(kkt_solver=name).validate()


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
    kkt = np.eye(2)
    with pytest.raises(TypeError, match="direct"):
        backend().solve_blocks(kkt, np.ones((1, 2)), np.ones((1, 2)), direct=True)
    for retired in ("resolve", "solve_many", "supports_blocks"):
        assert not hasattr(backend, retired)


def test_one_solver_core(case9_fixture):
    import repro.mips.solver
    import repro.opf
    import repro.utils.sparse
    from repro.opf import solve_opf_batch

    with pytest.raises(TypeError, match="batched"):
        solve_opf_batch(
            case9_fixture, case9_fixture.bus.Pd[None], case9_fixture.bus.Qd[None], batched=None
        )
    assert not hasattr(repro.opf, "build_model")
    for name in ("CachedTranspose", "cached_vstack_csr"):
        assert not hasattr(repro.utils.sparse, name)
    for name in ("_KKTAssembler", "_BoundHandler", "_conditions", "_is_converged"):
        assert not hasattr(repro.mips.solver, name)
