"""Tests of the KKT solve against its SuperLU reference, and of the sparse
block-assembly helpers.

``LDLSolver`` is the one KKT solve; :class:`reference.kkt.FactorizedSolver`
is the independent reference it must agree with, system by system and, put
under ``mips_batch`` by :func:`reference.kkt.kkt_solve`, trajectory by
trajectory.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from reference.kkt import BACKENDS, FactorizedSolver, KKTSolveError, kkt_solve, solve, solver_for
from reference.qp import qps_mips
from repro.utils import planes
from repro.utils.sparse import bmat_order, col_scaled_csr, row_scaled_csr


# ---------------------------------------------------------------- block assembly
def _random_csr(rng, m, n, density=0.3, complex_=False):
    mat = sp.random(m, n, density=density, random_state=rng, format="csr")
    if complex_:
        mat = mat + 1j * sp.random(m, n, density=density, random_state=rng, format="csr")
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _assert_same_matrix(got, want):
    assert got.format == want.format and got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


def test_bmat_order_matches_scipy_bmat():
    """The template is ``sp.bmat``'s matrix, in CSR and in CSC, and gathering
    the blocks' data through the order rebuilds ``sp.bmat`` for new values on
    the same patterns, one plane row per set of values."""
    rng = np.random.RandomState(0)
    A = _random_csr(rng, 4, 5)
    B = _random_csr(rng, 4, 3)
    C = _random_csr(rng, 2, 5)
    A2 = A.copy()
    A2.data = A2.data * 3.0 - 1.0
    data = [np.stack([A.data, A2.data]), np.stack([B.data] * 2), np.stack([C.data] * 2)]
    for fmt in ("csr", "csc"):
        template, order = bmat_order([[A, B], [C, None]], fmt)
        _assert_same_matrix(template, sp.bmat([[A, B], [C, None]], format=fmt))
        plane = planes.take(np.concatenate(data, axis=1), order)
        for row, blocks in zip(plane, ([[A, B], [C, None]], [[A2, B], [C, None]])):
            np.testing.assert_array_equal(row, sp.bmat(blocks, format=fmt).data)
        # Blocks in another format are canonicalised: the order indexes
        # their canonical CSR data.
        _, csc_order = bmat_order([[A.tocsc(), B.tocsc()], [C.tocsc(), None]], fmt)
        np.testing.assert_array_equal(csc_order, order)


def test_bmat_order_complex_and_none_blocks():
    rng = np.random.RandomState(2)
    A = _random_csr(rng, 3, 4, complex_=True)
    Z = sp.csr_matrix((3, 2))
    D = _random_csr(rng, 2, 2, density=1.0)
    blocks = [[A, Z], [None, D]]
    template, order = bmat_order(blocks, "csr")
    _assert_same_matrix(template, sp.bmat(blocks, format="csr"))
    assert template.dtype == np.complex128
    np.testing.assert_array_equal(np.concatenate([A.data, D.data])[order], template.data)
    # Explicit zeros keep their slots: the pattern never depends on values.
    E = sp.csr_matrix((np.array([0.0, 2.0]), np.array([0, 1]), np.array([0, 1, 2])), shape=(2, 2))
    template, order = bmat_order([[E, None], [None, E]], "csc")
    assert template.nnz == 4 and sorted(order) == [0, 1, 2, 3]


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
    report = solver_for(kkt, BACKENDS[name]).solve_blocks(kkt.data[None, :], rhs[None, :])
    assert np.allclose(kkt @ report.solutions[0], rhs, atol=1e-9)
    assert report.factor_seconds >= 0.0


def test_factorized_solver_matches_ldl():
    kkt, rhs = _random_system(seed=3)
    ref = solve(kkt, rhs)
    out = solve(kkt, rhs, solver_for(kkt, FactorizedSolver))
    assert np.allclose(out, ref, atol=1e-10)


def test_factorized_solver_carries_nothing_between_systems():
    """The reference is stateless: a system's solution is the same bits
    whatever the solver instance factorised before it.  A solver serves one
    pattern, which it holds beside its counters, and nothing else."""
    kkt, rhs = _random_system(seed=1)
    fresh = solve(kkt, rhs, solver_for(kkt, FactorizedSolver))
    solver = solver_for(kkt, FactorizedSolver)
    other_rhs = _random_system(seed=2)[1]
    solve(kkt, other_rhs, solver)
    scaled = kkt.copy()
    scaled.data = scaled.data * 1.5
    solve(scaled, rhs, solver)
    np.testing.assert_array_equal(solve(kkt, rhs, solver), fresh)
    assert solver.numeric_refactorizations == 3
    state = {k for k, v in vars(solver).items() if not isinstance(v, (int, float))}
    assert state == {"pattern"}, f"non-counter attributes on the reference: {state}"


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
        report = solver_for(kkt, BACKENDS[name]).solve_blocks(kkt.data[None, :], rhs[None, :])
        assert report.solutions.shape == (1, rhs.size)
        solver = solver_for(kkt, BACKENDS[name])
        if report.failed:
            assert report.failed == [0] and np.isnan(report.solutions[0]).all()
            with pytest.raises(KKTSolveError):
                solve(kkt, rhs, solver)
            assert solver.regularizations == 0
        else:
            np.testing.assert_array_equal(solve(kkt, rhs, solver), report.solutions[0])
            assert solver.regularizations == report.regularizations[0]
        outcomes.append(bool(report.failed))
    # A healthy system, a recovered singular one and a rejected one.
    assert outcomes == [False, False, True]


def test_solve_blocks_reports_failed_rows_without_touching_neighbours():
    kkt, rhs = _singular_system(False)
    good_rhs = _singular_system(True)[1]
    for backend in BACKENDS.values():
        report = solver_for(kkt, backend).solve_blocks(
            np.stack([kkt.data, kkt.data]), np.stack([good_rhs, rhs])
        )
        assert report.failed == [1]
        assert list(report.regularizations) == [1, 0]
        alone = solver_for(kkt, backend).solve_blocks(kkt.data[None, :], good_rhs[None, :])
        np.testing.assert_array_equal(report.solutions[0], alone.solutions[0])
    with pytest.raises(ValueError, match="matching batch sizes"):
        solver_for(kkt, FactorizedSolver).solve_blocks(
            np.stack([kkt.data, kkt.data]), rhs[None, :]
        )


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
    solver = solver_for(kkt, FactorizedSolver, regularization=1e-8)
    x = solve(kkt, rhs, solver)
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
    with pytest.raises(KKTSolveError, match="residual"):
        solve(kkt, rhs, solver_for(kkt, FactorizedSolver))


def test_factorized_solver_gives_up_on_hopeless_matrix():
    kkt = sp.csc_matrix((2, 2))
    solver = solver_for(
        kkt, FactorizedSolver, regularization=1e-30, reg_growth=1.0 + 1e-9, max_retries=0
    )
    report = solver.solve_blocks(kkt.data[None, :], np.ones((1, 2)))
    assert report.failed == [0]
    with pytest.raises(KKTSolveError):
        solve(kkt, np.ones(2), solver)
    # The counter reports actual recoveries, not failed attempts.
    assert solver.regularizations == 0
    assert report.factor_seconds >= 0.0


def test_factorized_solver_validation():
    kkt = _random_system()[0]
    with pytest.raises(ValueError):
        solver_for(kkt, FactorizedSolver, regularization=0.0)
    with pytest.raises(ValueError):
        solver_for(kkt, FactorizedSolver, reg_growth=1.0)
    with pytest.raises(ValueError):
        solver_for(kkt, FactorizedSolver, max_retries=-1)
    with pytest.raises(ValueError):
        solver_for(kkt, FactorizedSolver, residual_tol=0.0)


# ------------------------------------------------- backends through the solver
@pytest.mark.parametrize("name", ["factorized", "ldl"])
def test_qp_solves_identically_with_both_backends(name):
    with kkt_solve(name):
        res = qps_mips(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.converged
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-6)


def test_backends_agree_on_iterations_and_objective():
    H = np.array([[3.0, 0.5], [0.5, 1.0]])
    results = {}
    for name in BACKENDS:
        with kkt_solve(name):
            results[name] = qps_mips(
                H, np.array([-1.0, 0.5]), A_in=[[1.0, 1.0]], b_in=[1.0], xmin=np.zeros(2)
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
    with kkt_solve("factorized"):
        res = qps_mips(
            None, np.array([1.0, 1.0]), A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0]
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
