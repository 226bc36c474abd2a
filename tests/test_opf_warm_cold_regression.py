"""Warm-started and cold-started MIPS must reach the same OPF solution.

This is the guard-rail for the planned KKT assembly (and any future solver
change): a warm start may only change *how fast* the solver gets to the
optimum, never *where* it lands.  Exercised on the bundled IEEE cases with
the KKT solve and with its SuperLU reference (:mod:`reference.kkt`).
"""

import numpy as np
import pytest

from reference.kkt import kkt_solve
from repro.grid import case9, case14
from repro.opf import OPFModel, solve_opf


@pytest.fixture(scope="module", params=["case9", "case14"])
def cold_and_model(request):
    case = case9() if request.param == "case9" else case14()
    model = OPFModel(case)
    cold = solve_opf(case, model=model)
    assert cold.success
    return case, model, cold


def test_warm_start_reaches_cold_start_solution(cold_and_model):
    case, model, cold = cold_and_model
    warm = solve_opf(case, warm_start=cold.warm_start(), model=model)
    assert warm.success
    assert abs(warm.objective - cold.objective) < 1e-6 * (1.0 + abs(cold.objective))
    assert np.abs(warm.x - cold.x).max() < 1e-6
    # The paper's whole premise: a precise warm start needs (far) fewer iterations.
    assert warm.iterations <= cold.iterations


def test_backends_agree_cold_started(cold_and_model):
    case, model, cold = cold_and_model
    with kkt_solve("factorized"):
        ref = solve_opf(case, model=model)
    assert ref.success
    assert ref.iterations == cold.iterations
    assert abs(ref.objective - cold.objective) < 1e-8 * (1.0 + abs(cold.objective))
    assert np.abs(ref.x - cold.x).max() < 1e-6


def test_backends_agree_warm_started(cold_and_model):
    case, model, cold = cold_and_model
    results = {}
    for backend in ("factorized", "ldl"):
        with kkt_solve(backend):
            results[backend] = solve_opf(case, warm_start=cold.warm_start(), model=model)
    fact, ldl = results["factorized"], results["ldl"]
    assert fact.success and ldl.success
    assert fact.iterations == ldl.iterations
    assert abs(fact.objective - ldl.objective) < 1e-8 * (1.0 + abs(ldl.objective))


def test_model_reuse_across_scenarios_matches_fresh_models(cold_and_model):
    """A model's kernels and lockstep plan, shared across solves, must not
    leak state between scenarios with different loads."""
    case, model, _ = cold_and_model
    rng = np.random.default_rng(7)
    for _ in range(3):
        scale = 1.0 + 0.05 * rng.standard_normal()
        Pd = case.bus.Pd * scale
        Qd = case.bus.Qd * scale
        shared = solve_opf(case, Pd_mw=Pd, Qd_mvar=Qd, model=model)
        fresh = solve_opf(case, Pd_mw=Pd, Qd_mvar=Qd, model=OPFModel(case))
        assert shared.success == fresh.success
        if shared.success:
            assert shared.iterations == fresh.iterations
            assert abs(shared.objective - fresh.objective) < 1e-8 * (
                1.0 + abs(fresh.objective)
            )
            assert np.abs(shared.x - fresh.x).max() < 1e-8
