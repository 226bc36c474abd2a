"""Tests of the MIPS interior-point core on problems with known solutions."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mips import MIPSOptions, mips, mips_batch, qps_mips


# ------------------------------------------------------------------- QP problems
def test_equality_constrained_qp():
    """min x'x  s.t. x1 + x2 = 1  ->  x = (0.5, 0.5)."""
    res = qps_mips(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.converged
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-6)
    assert res.f == pytest.approx(0.5, abs=1e-6)
    # Equality multiplier: lambda = -1 (gradient condition 2x + lam * 1 = 0).
    assert res.lam[0] == pytest.approx(-1.0, abs=1e-5)


def test_bound_constrained_qp_active_upper_bound():
    """min (x-3)^2 s.t. 0 <= x <= 2  ->  x = 2 with positive bound multiplier."""
    res = qps_mips([[2.0]], [-6.0], xmin=[0.0], xmax=[2.0])
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, abs=1e-5)
    assert res.mu.max() > 0.1  # the upper bound is active


def test_inequality_constrained_qp():
    """min x1^2 + x2^2 s.t. x1 + x2 >= 2  ->  x = (1, 1)."""
    res = qps_mips(
        2 * np.eye(2), np.zeros(2), A_in=[[-1.0, -1.0]], b_in=[-2.0]
    )
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_linear_program_with_bounds():
    """min -x1 - 2 x2 s.t. x1 + x2 <= 1, x >= 0  ->  x = (0, 1)."""
    res = qps_mips(
        None,
        np.array([-1.0, -2.0]),
        A_in=[[1.0, 1.0]],
        b_in=[1.0],
        xmin=np.zeros(2),
    )
    assert res.converged
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-4)
    assert res.f == pytest.approx(-2.0, abs=1e-4)


def test_portfolio_style_qp_satisfies_kkt():
    """A 4-variable convex QP with equality and bound constraints: check the KKT conditions."""
    H = np.array(
        [
            [1003.1, 4.3, 6.3, 5.9],
            [4.3, 2.2, 2.1, 3.9],
            [6.3, 2.1, 3.5, 4.8],
            [5.9, 3.9, 4.8, 10.0],
        ]
    )
    c = np.zeros(4)
    A_eq = np.array([[1.0, 1.0, 1.0, 1.0], [0.17, 0.11, 0.10, 0.18]])
    b_eq = np.array([1.0, 0.10])
    res = qps_mips(H, c, A_eq=A_eq, b_eq=b_eq, xmin=np.zeros(4))
    assert res.converged
    # Primal feasibility.
    assert np.allclose(A_eq @ res.x, b_eq, atol=1e-6)
    assert np.all(res.x >= -1e-7)
    # Stationarity: H x + A_eqᵀ λ - µ_lb = 0 (lower-bound rows carry -I).
    mu_lb = np.zeros(4)
    mu_lb[res.partition.lb_idx] = res.mu[res.partition.n_ineq_nonlin :]
    grad = H @ res.x + A_eq.T @ res.lam[: 2] - mu_lb
    assert np.abs(grad).max() < 1e-5
    # Dual feasibility and complementarity.
    assert np.all(res.mu >= -1e-9)
    assert np.abs(res.mu * res.z).max() < 1e-5
    # The objective cannot beat the unconstrained-in-the-nullspace optimum found
    # by solving the reduced equality-constrained QP over the active-set guess.
    assert res.f <= 0.5 * res.x @ H @ res.x + 1e-9


def test_qp_input_validation():
    with pytest.raises(ValueError):
        qps_mips(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        qps_mips(np.eye(2), np.zeros(2), A_eq=np.eye(2), b_eq=np.zeros(3))


# ------------------------------------------------------------ nonlinear problems
def _rosenbrock_constrained():
    """min (1-x)^2 + 100 (y - x^2)^2  s.t.  x^2 + y^2 <= 1.5.

    The Jacobian and Hessian come back as dense arrays: at the start point
    (0, 0) some of their entries are zero, and a dense array declares every
    entry part of the sparsity template the solve is fixed to.
    """

    def f_fcn(x):
        f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        df = np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        return f, df

    def gh_fcn(x):
        g = np.zeros(0)
        h = np.array([x[0] ** 2 + x[1] ** 2 - 1.5])
        Jg = sp.csr_matrix((0, 2))
        Jh = np.array([[2 * x[0], 2 * x[1]]])
        return g, h, Jg, Jh

    def hess_fcn(x, lam, mu, cost_mult):
        H = cost_mult * np.array(
            [
                [2 - 400 * (x[1] - 3 * x[0] ** 2), -400 * x[0]],
                [-400 * x[0], 200.0],
            ]
        )
        return H + (mu[0] if mu.size else 0.0) * 2 * np.eye(2)

    return f_fcn, gh_fcn, hess_fcn


def test_constrained_rosenbrock():
    f_fcn, gh_fcn, hess_fcn = _rosenbrock_constrained()
    res = mips(f_fcn, np.array([0.0, 0.0]), gh_fcn=gh_fcn, hess_fcn=hess_fcn)
    assert res.converged
    # The unconstrained optimum (1, 1) violates x^2+y^2 <= 1.5 slightly, so the
    # solution sits near the boundary close to (0.91, 0.83).
    assert res.f < 0.02
    assert res.x[0] ** 2 + res.x[1] ** 2 <= 1.5 + 1e-6


def test_mips_nonlinear_equality_circle():
    """min x + y s.t. x^2 + y^2 = 2  ->  x = y = -1 with multiplier 0.5.

    The objective is linear, so the Lagrangian Hessian is singular at λ = 0;
    a warm-started multiplier (which is exactly what Smart-PGSim supplies)
    makes the KKT system well posed from the first iteration.
    """

    def f_fcn(x):
        return x[0] + x[1], np.array([1.0, 1.0])

    def gh_fcn(x):
        g = np.array([x[0] ** 2 + x[1] ** 2 - 2.0])
        return g, np.zeros(0), sp.csr_matrix(np.array([[2 * x[0], 2 * x[1]]])), sp.csr_matrix((0, 2))

    def hess_fcn(x, lam, mu, cost_mult):
        return sp.csr_matrix((lam[0] if lam.size else 0.0) * 2 * np.eye(2))

    # The problem is non-convex (two stationary points); start in the basin of
    # the minimiser, as a warm start would.
    res = mips(
        f_fcn,
        np.array([-0.5, -1.5]),
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        lam0=np.array([0.3]),
    )
    assert res.converged
    assert np.allclose(res.x, [-1.0, -1.0], atol=1e-5)
    assert res.lam[0] == pytest.approx(0.5, abs=1e-4)


# ----------------------------------------------------------------- solver details
def test_history_recording_and_conditions():
    res = qps_mips(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert len(res.history) == res.iterations + 1
    final = res.final_conditions()
    assert final.feascond < 1e-6
    assert final.gradcond < 1e-6


def test_history_can_be_disabled():
    opts = MIPSOptions(record_history=False)
    res = qps_mips(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0], options=opts)
    assert res.history == []
    assert res.final_conditions() is None


def test_iteration_limit_reported():
    opts = MIPSOptions(max_it=1)
    res = qps_mips([[2.0]], [-6.0], xmin=[0.0], xmax=[2.0], options=opts)
    assert not res.converged
    assert res.eflag == 0
    assert "iteration limit" in res.message


def test_fixed_variable_treated_as_equality():
    """xmin == xmax pins the variable and yields an equality multiplier."""
    res = qps_mips(np.eye(2) * 2, np.zeros(2), xmin=np.array([1.0, -10.0]), xmax=np.array([1.0, 10.0]))
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-8)
    assert res.x[1] == pytest.approx(0.0, abs=1e-6)
    assert res.partition.eq_bound_idx.tolist() == [0]


def test_warm_start_dimension_validation():
    """Wrong-sized warm-start multiplier vectors are rejected up front."""

    def f_fcn(x):
        return float(x @ x), 2 * x, sp.csr_matrix(2 * np.eye(2))

    with pytest.raises(ValueError):
        mips(f_fcn, np.zeros(2), xmin=np.zeros(2), xmax=np.ones(2), mu0=np.ones(7))
    with pytest.raises(ValueError):
        mips(f_fcn, np.zeros(2), xmin=np.zeros(2), xmax=np.ones(2), z0=np.ones(3))
    with pytest.raises(ValueError):
        mips(f_fcn, np.zeros(2), xmin=np.zeros(2), xmax=np.ones(2), lam0=np.ones(1))


def test_options_validation():
    with pytest.raises(ValueError):
        MIPSOptions(feastol=-1).validate()
    with pytest.raises(ValueError):
        MIPSOptions(xi=1.5).validate()
    with pytest.raises(ValueError):
        MIPSOptions(max_it=0).validate()
    MIPSOptions().validate()  # defaults are valid


def test_bounds_shape_validation():
    def f_fcn(x):
        return float(x @ x), 2 * x, sp.csr_matrix(2 * np.eye(2))

    with pytest.raises(ValueError):
        mips(f_fcn, np.zeros(2), xmin=np.zeros(3))
    with pytest.raises(ValueError):
        mips(f_fcn, np.zeros(2), xmin=np.ones(2), xmax=np.zeros(2))


def test_dense_jacobian_callbacks_accepted():
    """Constraint callbacks may return dense ndarray Jacobians (public API)."""

    def f_fcn(x):
        return float(x @ x), 2 * x

    def gh_fcn(x):
        g = np.array([x[0] + x[1] - 1.0])
        return g, np.zeros(0), np.array([[1.0, 1.0]]), np.zeros((0, 2))

    def hess_fcn(x, lam, mu, cost_mult):
        return sp.csr_matrix(2 * np.eye(2) * cost_mult)

    res = mips(f_fcn, np.zeros(2), gh_fcn=gh_fcn, hess_fcn=hess_fcn)
    assert res.converged
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-6)


def test_entry_outside_first_evaluation_template_rejected():
    """The Jacobian pattern of the first evaluation is the solve's template: a
    later nonzero entry outside it raises a typed error instead of silently
    changing the KKT pattern mid-solve."""
    f_fcn, gh_fcn, hess_fcn = _rosenbrock_constrained()

    def pruned_gh(x):
        g, h, Jg, Jh = gh_fcn(x)
        return g, h, Jg, sp.csr_matrix(Jh)  # drops the zero entries at (0, 0)

    with pytest.raises(ValueError, match="Jh has a nonzero entry outside"):
        mips(f_fcn, np.array([0.0, 0.0]), gh_fcn=pruned_gh, hess_fcn=hess_fcn)


def test_mips_is_the_one_row_lockstep_solve():
    """``mips`` adds no iteration of its own: the same problem handed to
    ``mips_batch`` at width 1 lands on the same bits."""
    f_fcn, gh_fcn, hess_fcn = _rosenbrock_constrained()
    res = mips(f_fcn, np.array([0.0, 0.0]), gh_fcn=gh_fcn, hess_fcn=hess_fcn)

    def f_rows(X, idx):
        f, df = f_fcn(X[0])
        return np.array([f]), df[None, :]

    def gh_rows(X, idx):
        g, h, Jg, Jh = gh_fcn(X[0])
        return g[None, :], h[None, :], np.zeros((1, 0)), Jh.reshape(1, -1)

    def hess_rows(X, lam, mu, cost_mult, idx):
        return hess_fcn(X[0], lam[0], mu[0], cost_mult).reshape(1, -1)

    (alone,) = mips_batch(
        f_rows,
        np.zeros((1, 2)),
        gh_fcn=gh_rows,
        hess_fcn=hess_rows,
        jg_template=sp.csr_matrix((0, 2)),
        jh_template=sp.csr_matrix(np.ones((1, 2))),
        hess_template=sp.csr_matrix(np.ones((2, 2))),
    )
    assert res.converged and res.iterations == alone.iterations
    for name in ("x", "lam", "mu", "z"):
        np.testing.assert_array_equal(getattr(res, name), getattr(alone, name))
    assert res.f == alone.f


def test_unconstrained_quadratic_single_newton_step():
    """With no constraints at all the solver is a pure Newton method."""
    def f_fcn(x):
        H = np.diag([2.0, 4.0])
        return float(0.5 * x @ H @ x - x[0]), H @ x - np.array([1.0, 0.0]), sp.csr_matrix(H)

    res = mips(f_fcn, np.array([5.0, 5.0]))
    assert res.converged
    assert np.allclose(res.x, [0.5, 0.0], atol=1e-6)


def test_objective_hessian_costs_no_extra_evaluation():
    """Without ``hess_fcn`` the Hessian is the ``d2f`` of the evaluation the
    loop just made: the objective runs once per iteration plus once at the
    start point, which also fixes the Hessian template."""
    points = []

    def f_fcn(x):
        points.append(x.copy())
        H = np.diag([2.0, 4.0, 1.0])
        return float(0.5 * x @ H @ x - x[0]), H @ x - np.array([1.0, 0.0, 0.0]), sp.csr_matrix(H)

    res = mips(f_fcn, np.full(3, 5.0), xmin=np.array([0.6, -1.0, -1.0]), xmax=np.full(3, 10.0))
    assert res.converged and res.iterations > 2
    assert len(points) == res.iterations + 1
