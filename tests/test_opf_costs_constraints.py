"""Tests of the OPF objective, constraints and their Jacobians."""

import numpy as np
import pytest

from repro.opf import (
    OPFModel,
    branch_flow_limits,
    objective,
    polynomial_cost,
    polynomial_cost_derivatives,
    power_balance,
    total_cost,
)
from repro.opf.model import rated_branches


# ------------------------------------------------------------------------- costs
def test_polynomial_cost_quadratic_evaluation(case9_fixture):
    Pg = np.array([100.0, 100.0, 100.0])
    costs = polynomial_cost(case9_fixture, Pg)
    # c2*P^2 + c1*P + c0 with case9 coefficients.
    assert costs[0] == pytest.approx(0.11 * 100**2 + 5 * 100 + 150)
    assert costs[1] == pytest.approx(0.085 * 100**2 + 1.2 * 100 + 600)


def test_polynomial_cost_derivatives_match_fd(case14_fixture, rng):
    Pg = rng.uniform(10, 90, size=case14_fixture.n_gen)
    d1, d2 = polynomial_cost_derivatives(case14_fixture, Pg)
    eps = 1e-5
    for g in range(case14_fixture.n_gen):
        pp, pm = Pg.copy(), Pg.copy()
        pp[g] += eps
        pm[g] -= eps
        fd = (polynomial_cost(case14_fixture, pp)[g] - polynomial_cost(case14_fixture, pm)[g]) / (2 * eps)
        assert d1[g] == pytest.approx(fd, rel=1e-6)
    assert np.all(d2 >= 0)  # convex quadratic costs


def test_total_cost_ignores_offline_units(case9_fixture):
    Pg = np.array([100.0, 100.0, 100.0])
    full = total_cost(case9_fixture, Pg)
    modified = case9_fixture.copy()
    modified.gen.status[2] = 0
    reduced = total_cost(modified, Pg)
    assert reduced < full


def test_objective_gradient_matches_fd(opf_model9, rng):
    x = opf_model9.default_start() + 0.01 * rng.standard_normal(opf_model9.idx.nx)
    f, df, d2f = objective(opf_model9, x)
    eps = 1e-6
    for i in rng.choice(opf_model9.idx.nx, size=8, replace=False):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (objective(opf_model9, xp)[0] - objective(opf_model9, xm)[0]) / (2 * eps)
        assert df[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
    # Hessian only in the Pg block.
    dense = d2f.toarray()
    assert np.allclose(dense[: 2 * 9, :], 0)
    assert np.all(np.diag(dense)[opf_model9.idx.pg] > 0)


# -------------------------------------------------------------------- constraints
def test_power_balance_dimensions_and_jacobian_shape(opf_model9):
    x = opf_model9.default_start()
    g, Jg = power_balance(opf_model9, x)
    assert g.shape == (2 * 9,)
    assert Jg.shape == (2 * 9, opf_model9.idx.nx)


def test_power_balance_zero_when_generation_matches_load(case9_fixture, opf_model9, opf_solution9):
    g, _ = power_balance(opf_model9, opf_solution9.x)
    assert np.abs(g).max() < 1e-6


def test_power_balance_respects_load_override(opf_model9, case9_fixture):
    x = opf_model9.default_start()
    g_nominal, _ = power_balance(opf_model9, x)
    g_scaled, _ = power_balance(
        opf_model9, x, case9_fixture.bus.Pd * 1.1, case9_fixture.bus.Qd
    )
    # Higher load -> larger (more positive) active-power mismatch.
    assert g_scaled[: case9_fixture.n_bus].sum() > g_nominal[: case9_fixture.n_bus].sum()


def test_power_balance_jacobian_matches_fd(opf_model9, rng):
    x = opf_model9.default_start() + 0.01 * rng.standard_normal(opf_model9.idx.nx)
    g, Jg = power_balance(opf_model9, x)
    eps = 1e-6
    cols = rng.choice(opf_model9.idx.nx, size=10, replace=False)
    for i in cols:
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (power_balance(opf_model9, xp)[0] - power_balance(opf_model9, xm)[0]) / (2 * eps)
        assert np.abs(Jg.toarray()[:, i] - fd).max() < 1e-6


def test_branch_flow_limits_active_only_for_rated_branches(case9_fixture, case14_fixture):
    model9 = OPFModel(case9_fixture)
    model14 = OPFModel(case14_fixture)
    h9, Jh9 = branch_flow_limits(model9, model9.default_start())
    h14, Jh14 = branch_flow_limits(model14, model14.default_start())
    assert h9.shape == (2 * 9,)  # all 9 branches of case9 are rated
    assert h14.shape == (0,)  # case14 ships without branch ratings
    assert Jh14.shape == (0, model14.idx.nx)


def test_branch_flow_limits_satisfied_at_solution(opf_model9, opf_solution9):
    h, _ = branch_flow_limits(opf_model9, opf_solution9.x)
    assert np.all(h <= 1e-6)


def test_branch_flow_jacobian_matches_fd(opf_model9, rng):
    x = opf_model9.default_start() + 0.01 * rng.standard_normal(opf_model9.idx.nx)
    h, Jh = branch_flow_limits(opf_model9, x)
    eps = 1e-6
    for i in rng.choice(2 * 9, size=6, replace=False):  # voltage coordinates only
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (branch_flow_limits(opf_model9, xp)[0] - branch_flow_limits(opf_model9, xm)[0]) / (2 * eps)
        assert np.abs(Jh.toarray()[:, i] - fd).max() < 1e-5


def test_flow_limits_none_disables_inequalities(case9_fixture):
    """A branch is rated when it is in service with ``rate_a > 0``: zeroed
    ratings leave no flow rows, and an outaged branch drops its two."""
    unrated = case9_fixture.copy()
    unrated.branch.rate_a[:] = 0.0
    model = OPFModel(unrated)
    h, Jh = branch_flow_limits(model, model.default_start())
    assert h.size == 0 and Jh.shape == (0, model.idx.nx)
    assert rated_branches(unrated).size == 0
    outaged = case9_fixture.copy()
    outaged.branch.status[3] = 0
    assert rated_branches(outaged).tolist() == [0, 1, 2, 4, 5, 6, 7, 8]
    h, _ = branch_flow_limits(OPFModel(outaged), OPFModel(outaged).default_start())
    assert h.size == 2 * 8
