"""Tests of the OPF model (indexing, bounds) and the end-to-end solver."""

import numpy as np
import pytest

from reference.opf_hessian import lagrangian_hessian
from repro.mips import MIPSOptions
from repro.opf import (
    OPFModel,
    WarmStart,
    solve_opf,
)
from repro.opf.constraints import branch_flow_limits, power_balance
from repro.opf.costs import objective


# ----------------------------------------------------------------- variable index
def test_variable_index_split_join(opf_model9, rng):
    x = rng.standard_normal(opf_model9.idx.nx)
    parts = opf_model9.idx.split(x)
    assert parts["Va"].shape == (9,)
    assert parts["Pg"].shape == (3,)
    rebuilt = opf_model9.idx.join(parts["Va"], parts["Vm"], parts["Pg"], parts["Qg"])
    assert np.allclose(rebuilt, x)


def test_bounds_structure(case14_fixture):
    model = OPFModel(case14_fixture)
    xmin, xmax = model.bounds()
    ref = case14_fixture.ref_bus_indices()[0]
    # Reference angle fixed; other angles unbounded.
    assert xmin[ref] == xmax[ref]
    other = [i for i in range(14) if i != ref]
    assert np.all(np.isinf(xmin[other]))
    # Voltage magnitudes bounded by the bus limits.
    assert np.allclose(xmin[model.idx.vm], case14_fixture.bus.Vmin)
    assert np.allclose(xmax[model.idx.vm], case14_fixture.bus.Vmax)
    # Generator limits in p.u.
    assert np.allclose(xmax[model.idx.pg], case14_fixture.gen.Pmax / 100.0)


def test_table2_multiplier_counts(case14_fixture):
    """Reproduce the #λ / #µ(Z) bookkeeping of Table II for the 14-bus system."""
    result = solve_opf(case14_fixture)
    assert result.lam.size == 2 * 14 + 1  # 29 in the paper
    assert result.mu.size == 48  # 48 in the paper
    assert result.z.size == result.mu.size


def test_default_start_within_bounds(case30s_fixture):
    model = OPFModel(case30s_fixture)
    x0 = model.default_start()
    xmin, xmax = model.bounds()
    finite = np.isfinite(xmin)
    assert np.all(x0[finite] >= xmin[finite] - 1e-12)
    finite = np.isfinite(xmax)
    assert np.all(x0[finite] <= xmax[finite] + 1e-12)


# ----------------------------------------------------------------- Hessian checks
def test_lagrangian_hessian_matches_fd(opf_model9, rng):
    model = opf_model9
    x = model.default_start() + 0.01 * rng.standard_normal(model.idx.nx)
    lam = rng.standard_normal(2 * 9)
    mu = np.abs(rng.standard_normal(2 * 9))

    def lagr_grad(xx):
        _, df, _ = objective(model, xx)
        _, Jg = power_balance(model, xx)
        _, Jh = branch_flow_limits(model, xx)
        return df + Jg.T @ lam + Jh.T @ mu

    H = lagrangian_hessian(model, x, lam, mu).toarray()
    assert np.abs(H - H.T).max() < 1e-9  # symmetry
    eps = 1e-6
    cols = rng.choice(model.idx.nx, size=8, replace=False)
    for i in cols:
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (lagr_grad(xp) - lagr_grad(xm)) / (2 * eps)
        assert np.abs(H[:, i] - fd).max() < 1e-4 * max(1.0, np.abs(fd).max())


# ------------------------------------------------------------------- OPF solutions
def test_case9_opf_matches_reference_objective(opf_solution9):
    """MATPOWER's reference optimum for case9 is 5296.69 $/h."""
    assert opf_solution9.success
    assert opf_solution9.objective == pytest.approx(5296.69, rel=1e-3)


def test_case14_opf_matches_reference_objective(opf_solution14):
    """MATPOWER's reference optimum for case14 is 8081.53 $/h."""
    assert opf_solution14.success
    assert opf_solution14.objective == pytest.approx(8081.53, rel=1e-3)


def test_opf_solution_respects_limits(opf_solution14, case14_fixture):
    tol = 1e-4
    assert np.all(opf_solution14.Vm <= case14_fixture.bus.Vmax + tol)
    assert np.all(opf_solution14.Vm >= case14_fixture.bus.Vmin - tol)
    assert np.all(opf_solution14.Pg_mw <= case14_fixture.gen.Pmax + tol * 100)
    assert np.all(opf_solution14.Pg_mw >= case14_fixture.gen.Pmin - tol * 100)
    assert np.all(opf_solution14.Qg_mvar <= case14_fixture.gen.Qmax + tol * 100)


def test_opf_generation_covers_load_plus_losses(opf_solution9, case9_fixture):
    total_gen = opf_solution9.Pg_mw.sum()
    total_load = case9_fixture.bus.Pd.sum()
    assert total_gen > total_load  # losses are positive
    assert total_gen < total_load * 1.1


def test_opf_synthetic_case_solves(case30s_fixture):
    result = solve_opf(case30s_fixture)
    assert result.success
    assert result.objective > 0


def test_warm_start_from_solution_converges_immediately(case9_fixture, opf_model9, opf_solution9):
    warm = opf_solution9.warm_start()
    result = solve_opf(case9_fixture, warm_start=warm, model=opf_model9)
    assert result.success
    assert result.iterations <= 3
    assert result.objective == pytest.approx(opf_solution9.objective, rel=1e-6)


def test_warm_start_partial_components(case9_fixture, opf_model9, opf_solution9):
    warm = opf_solution9.warm_start().masked(use_x=True, use_lam=False, use_mu=False, use_z=False)
    result = solve_opf(case9_fixture, warm_start=warm, model=opf_model9)
    assert result.success


def test_load_override_changes_solution(case9_fixture, opf_model9, opf_solution9):
    heavier = solve_opf(
        case9_fixture,
        Pd_mw=case9_fixture.bus.Pd * 1.08,
        Qd_mvar=case9_fixture.bus.Qd * 1.08,
        model=opf_model9,
    )
    assert heavier.success
    assert heavier.objective > opf_solution9.objective


def test_solver_options_validation(case9_fixture, opf_model9):
    """The iteration cap is the one solver option: checked when built, and
    a solve stops at it."""
    with pytest.raises(ValueError, match="max_it"):
        MIPSOptions(max_it=0)
    capped = solve_opf(case9_fixture, options=MIPSOptions(max_it=2), model=opf_model9)
    assert (capped.success, capped.iterations) == (False, 2)


def test_model_case_mismatch_rejected(case9_fixture, case14_fixture, opf_model9):
    with pytest.raises(ValueError):
        solve_opf(case14_fixture, model=opf_model9)


def test_warmstart_helpers():
    clipped = WarmStart(mu=np.array([-1.0, 0.5]), z=np.array([0.0, 2.0])).clipped_duals()
    assert np.all(clipped.mu > 0)
    assert np.all(clipped.z > 0)


def test_model_owns_one_batched_model_across_solves(case9_fixture):
    """``solve_opf`` runs on the model's own batched kernels and plan: calls
    that reuse the model never rebuild them."""
    model = OPFModel(case9_fixture)
    solve_opf(case9_fixture, model=model)
    kernels = model.batched
    plan = kernels.plan
    solve_opf(case9_fixture, Pd_mw=case9_fixture.bus.Pd * 1.02, model=model)
    assert model.batched is kernels
    assert kernels.plan is plan


def test_warm_x_of_the_wrong_length_rejected_naming_the_scenario(case9_fixture, opf_model9):
    """A length-1 warm ``x`` must not broadcast across the whole row."""
    from repro.opf import solve_opf_batch

    short = WarmStart(x=np.ones(1))
    with pytest.raises(ValueError, match=r"warm start 0: x has shape \(1,\)"):
        solve_opf(case9_fixture, warm_start=short, model=opf_model9)
    Pd = np.stack([case9_fixture.bus.Pd] * 3)
    Qd = np.stack([case9_fixture.bus.Qd] * 3)
    with pytest.raises(ValueError, match=r"warm start 2: x has shape \(1,\)"):
        solve_opf_batch(case9_fixture, Pd, Qd, warm_starts=[None, None, short], model=opf_model9)


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"deadline": 0.0}, {"warm_starts": []}, {"outages": []}],
    ids=["plain", "deadline", "warm_starts", "outages"],
)
def test_empty_batch_returns_no_results(case9_fixture, opf_model9, kwargs):
    """An empty batch answers ``[]``, like ``mips_batch`` and an empty fleet solve."""
    from repro.opf import solve_opf_batch

    empty = np.zeros((0, case9_fixture.n_bus))
    assert solve_opf_batch(case9_fixture, empty, empty, model=opf_model9, **kwargs) == []
    with pytest.raises(ValueError, match="one entry per scenario"):
        solve_opf_batch(case9_fixture, empty, empty, model=opf_model9, outages=[()])
