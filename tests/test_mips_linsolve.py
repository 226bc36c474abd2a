"""Tests of the pluggable KKT linear-solver layer and the sparse structure caches."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mips import (
    FactorizedSolver,
    KKTSolveError,
    LDLSolver,
    MIPSOptions,
    available_kkt_solvers,
    make_kkt_solver,
    qps_mips,
)
from repro.utils.sparse import (
    CachedBmat,
    col_scaled_csr,
    row_scaled_csr,
)


# ------------------------------------------------------------- structure caches
def _random_csr(rng, m, n, density=0.3, complex_=False):
    mat = sp.random(m, n, density=density, random_state=rng, format="csr")
    if complex_:
        mat = mat + 1j * sp.random(m, n, density=density, random_state=rng, format="csr")
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def test_cached_bmat_matches_scipy_bmat():
    rng = np.random.RandomState(0)
    A = _random_csr(rng, 4, 5)
    B = _random_csr(rng, 4, 3)
    C = _random_csr(rng, 2, 5)
    cache = CachedBmat("csr")
    blocks = [[A, B], [C, None]]
    out = cache.assemble(blocks)
    ref = sp.bmat(blocks, format="csr")
    assert np.allclose(out.toarray(), ref.toarray())
    assert cache.misses == 1 and cache.hits == 0

    # Same pattern, new values -> fast path, identical result.
    A2 = A.copy()
    A2.data = A2.data * 3.0 - 1.0
    out2 = cache.assemble([[A2, B], [C, None]])
    ref2 = sp.bmat([[A2, B], [C, None]], format="csr")
    assert np.allclose(out2.toarray(), ref2.toarray())
    assert cache.hits == 1

    # The returned matrix owns its data: a later assemble must not mutate it.
    before = out2.toarray()
    cache.assemble([[A, B], [C, None]])
    assert np.allclose(out2.toarray(), before)


def test_cached_bmat_rebuilds_on_pattern_change():
    rng = np.random.RandomState(1)
    cache = CachedBmat("csc")
    A = _random_csr(rng, 3, 3, density=0.5)
    out = cache.assemble([[A]])
    assert np.allclose(out.toarray(), A.toarray())
    B = _random_csr(rng, 3, 3, density=0.9)
    out = cache.assemble([[B]])
    assert np.allclose(out.toarray(), B.toarray())
    assert cache.misses == 2


def test_cached_bmat_complex_and_empty_blocks():
    rng = np.random.RandomState(2)
    A = _random_csr(rng, 3, 4, complex_=True)
    Z = sp.csr_matrix((3, 2))
    cache = CachedBmat("csr")
    out = cache.assemble([[A, Z]])
    ref = sp.bmat([[A, Z]], format="csr")
    assert np.allclose(out.toarray(), ref.toarray())


def test_scaled_csr_helpers_match_diag_products():
    rng = np.random.RandomState(4)
    A = _random_csr(rng, 6, 4, complex_=True)
    r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c = rng.standard_normal(4)
    assert np.allclose(
        row_scaled_csr(A, r).toarray(), (sp.diags(r) @ A).toarray()
    )
    assert np.allclose(
        col_scaled_csr(A, c).toarray(), (A @ sp.diags(c)).toarray()
    )


# ----------------------------------------------------------------- KKT backends
def _random_system(seed=0, n=50):
    """Symmetric quasi-definite test system — the shape every KKT matrix in
    this codebase actually has, and the contract the ``ldl`` backend is
    specified against (the SuperLU reference accepts it trivially)."""
    rng = np.random.RandomState(seed)
    A = sp.random(n, n, density=0.12, random_state=rng, format="csc")
    m = n // 3
    signs = np.r_[np.ones(n - m), -np.ones(m)]
    A = sp.csc_matrix(A + A.T + sp.diags(signs * 4.0))
    A.sort_indices()
    return A, rng.standard_normal(n)


@pytest.mark.parametrize("name", ["factorized", "ldl"])
def test_backends_solve_a_well_posed_system(name):
    kkt, rhs = _random_system()
    solver = make_kkt_solver(name)
    x = solver.solve(kkt, rhs)
    assert np.allclose(kkt @ x, rhs, atol=1e-9)
    assert solver.factor_seconds >= 0.0


def test_factorized_solver_matches_ldl():
    kkt, rhs = _random_system(seed=3)
    ref = LDLSolver().solve(kkt, rhs)
    out = FactorizedSolver().solve(kkt, rhs)
    assert np.allclose(out, ref, atol=1e-10)


def test_factorized_solver_carries_nothing_between_systems():
    """The reference is stateless: a system's solution is the same bits
    whatever the solver instance factorised before it."""
    kkt, rhs = _random_system(seed=1)
    fresh = FactorizedSolver().solve(kkt, rhs)
    solver = FactorizedSolver()
    other, other_rhs = _random_system(seed=2)
    solver.solve(other, other_rhs)
    scaled = kkt.copy()
    scaled.data = scaled.data * 1.5
    solver.solve(scaled, rhs)
    np.testing.assert_array_equal(solver.solve(kkt, rhs), fresh)
    assert solver.numeric_refactorizations == 3
    state = {k for k, v in vars(solver).items() if not isinstance(v, (int, float))}
    assert not state, f"non-counter attributes on the reference: {state}"


def _singular_system(consistent):
    """Saddle-point system with a zero (1,1) block and duplicated Jacobian
    rows: exactly singular; solvable only when rows 1/2 agree on x3."""
    kkt = sp.csc_matrix(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    return kkt, np.array([1.0, 1.0 if consistent else 2.0, 1.0])


@pytest.mark.parametrize("name", ["factorized", "ldl"])
def test_scalar_solve_is_the_one_row_solve_blocks(name):
    """``solve`` is ``solve_blocks`` on a one-row plane, bit for bit, and raises
    exactly when the report lists the row as failed."""
    systems = [_random_system(seed=5), _singular_system(True), _singular_system(False)]
    outcomes = []
    for kkt, rhs in systems:
        kkt.sort_indices()
        report = make_kkt_solver(name).solve_blocks(kkt, kkt.data[None, :], rhs[None, :])
        assert report.solutions.shape == (1, rhs.size)
        solver = make_kkt_solver(name)
        if report.failed:
            assert report.failed == [0] and np.isnan(report.solutions[0]).all()
            with pytest.raises(KKTSolveError):
                solver.solve(kkt, rhs)
            assert solver.regularizations == 0
        else:
            np.testing.assert_array_equal(solver.solve(kkt, rhs), report.solutions[0])
            assert solver.regularizations == report.regularizations[0]
        outcomes.append(bool(report.failed))
    # A healthy system, a recovered singular one and a rejected one.
    assert outcomes == [False, False, True]


def test_solve_blocks_reports_failed_rows_without_touching_neighbours():
    kkt, rhs = _singular_system(False)
    good_rhs = _singular_system(True)[1]
    for name in ("factorized", "ldl"):
        report = make_kkt_solver(name).solve_blocks(
            kkt, np.stack([kkt.data, kkt.data]), np.stack([good_rhs, rhs])
        )
        assert report.failed == [1]
        assert list(report.regularizations) == [1, 0]
        alone = make_kkt_solver(name).solve_blocks(kkt, kkt.data[None, :], good_rhs[None, :])
        np.testing.assert_array_equal(report.solutions[0], alone.solutions[0])
    with pytest.raises(ValueError, match="matching batch sizes"):
        FactorizedSolver().solve_blocks(kkt, np.stack([kkt.data, kkt.data]), rhs[None, :])


def test_factorized_solver_regularizes_singular_kkt():
    # Saddle-point system with a fully zero (1,1) block and rank-deficient
    # Jacobian rows: exactly singular, the seed path's hard-failure case.
    kkt = sp.csc_matrix(
        np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
    )
    rhs = np.array([1.0, 1.0, 1.0])
    solver = FactorizedSolver(regularization=1e-8)
    x = solver.solve(kkt, rhs)
    assert solver.regularizations >= 1
    assert np.all(np.isfinite(x))
    # The regularised solution still satisfies the consistent equations.
    assert np.allclose(kkt @ x, rhs, atol=1e-5)


def test_factorized_solver_rejects_degraded_regularized_solution():
    """A singular system with an *inconsistent* rhs has no solution; the
    regularised factorisation succeeds but its solution must be rejected by
    the residual check instead of silently returned."""
    kkt = sp.csc_matrix(
        np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
    )
    rhs = np.array([1.0, 2.0, 1.0])  # rows 1/2 demand x3 = 1 and x3 = 2
    solver = FactorizedSolver()
    with pytest.raises(KKTSolveError, match="residual"):
        solver.solve(kkt, rhs)


def test_factorized_solver_gives_up_on_hopeless_matrix():
    kkt = sp.csc_matrix((2, 2))
    solver = FactorizedSolver(regularization=1e-30, reg_growth=1.0 + 1e-9, max_retries=0)
    with pytest.raises(KKTSolveError):
        solver.solve(kkt, np.ones(2))
    # The counter reports actual recoveries, not failed attempts.
    assert solver.regularizations == 0
    assert solver.factor_seconds >= 0.0


def test_factorized_solver_validation():
    with pytest.raises(ValueError):
        FactorizedSolver(regularization=0.0)
    with pytest.raises(ValueError):
        FactorizedSolver(reg_growth=1.0)
    with pytest.raises(ValueError):
        FactorizedSolver(max_retries=-1)
    with pytest.raises(ValueError):
        FactorizedSolver(residual_tol=0.0)


# ------------------------------------------------------------ registry/options
def test_registry_lists_and_rejects():
    assert available_kkt_solvers() == ("factorized", "ldl")
    assert isinstance(make_kkt_solver("factorized", max_retries=1), FactorizedSolver)
    assert isinstance(make_kkt_solver("ldl", regularization=1e-6), LDLSolver)
    with pytest.raises(ValueError, match="factorized, ldl"):
        make_kkt_solver("does-not-exist")


def test_options_validate_kkt_fields():
    with pytest.raises(ValueError):
        MIPSOptions(kkt_solver="nope").validate()
    with pytest.raises(ValueError):
        MIPSOptions(kkt_reg=0.0).validate()
    with pytest.raises(ValueError):
        MIPSOptions(kkt_max_retries=-1).validate()
    MIPSOptions(kkt_solver="factorized").validate()


# ------------------------------------------------- backends through the solver
@pytest.mark.parametrize("name", ["factorized", "ldl"])
def test_qp_solves_identically_with_both_backends(name):
    opts = MIPSOptions(kkt_solver=name)
    res = qps_mips(
        2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0], options=opts
    )
    assert res.converged
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-6)


def test_backends_agree_on_iterations_and_objective():
    H = np.array([[3.0, 0.5], [0.5, 1.0]])
    results = {}
    for name in ("factorized", "ldl"):
        results[name] = qps_mips(
            H,
            np.array([-1.0, 0.5]),
            A_in=[[1.0, 1.0]],
            b_in=[1.0],
            xmin=np.zeros(2),
            options=MIPSOptions(kkt_solver=name),
        )
    fact, ldl = results["factorized"], results["ldl"]
    assert fact.converged and ldl.converged
    assert fact.iterations == ldl.iterations
    assert abs(fact.f - ldl.f) <= 1e-8 * (1.0 + abs(ldl.f))
    assert np.allclose(fact.x, ldl.x, atol=1e-8)


def test_singular_kkt_recovered_by_factorized_backend():
    """A linear objective with a redundant equality row makes the first KKT
    system exactly singular; the seed path failed hard, the factorized
    backend's diagonal regularisation lets MIPS continue."""
    res = qps_mips(
        None,
        np.array([1.0, 1.0]),
        A_eq=[[1.0, 1.0], [1.0, 1.0]],
        b_eq=[1.0, 1.0],
        options=MIPSOptions(kkt_solver="factorized"),
    )
    assert res.converged
    assert res.f == pytest.approx(1.0, abs=1e-6)


def test_phase_seconds_recorded():
    res = qps_mips(
        2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0]
    )
    assert set(res.phase_seconds) == {"eval", "assembly", "factorization", "backsolve"}
    assert all(v >= 0.0 for v in res.phase_seconds.values())
    assert sum(res.phase_seconds.values()) <= res.elapsed_seconds
    final = res.final_conditions()
    assert final.factor_seconds >= 0.0
