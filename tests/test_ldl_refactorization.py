"""Property tests for the same-pattern LDLᵀ refactorisation backend.

The ``ldl`` backend promises drop-in agreement with the SuperLU reference
backend over the symmetric quasi-definite KKT systems the interior-point
loop actually produces, plus three structural guarantees of its own:

* **same-pattern reuse** — one symbolic analysis serves every numeric
  refactorisation with an identical sparsity pattern (the telemetry counters
  expose the reuse so Fig. 5 attribution can see it),
* **enrollment invariance** — a row's batched solution is bit-identical to
  its solo solution, the property the lockstep batch scheduler relies on,
* **loud failure** — singular systems that the signed-shift recovery cannot
  heal reject with :class:`KKTSolveError` instead of returning garbage
  (residual acceptance against the *unperturbed* matrix).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.mips import KKTSolveError, FactorizedSolver, ldl, solver_telemetry
from repro.mips.ldl import LDLSolver


def _random_kkt(seed, n=12, m=4):
    """A symmetric quasi-definite KKT: SPD Hessian block over a zero block.

    The (2,2) constraint block is *structurally* empty, so a fill-reducing
    ordering can (and does) meet exact zero pivots — the dynamic pivot-clamp
    path is part of the contract under test, not an edge case.
    """
    rng = np.random.RandomState(seed)
    H = sp.random(n, n, density=0.3, random_state=rng)
    H = sp.csc_matrix(H + H.T + sp.diags(rng.uniform(2.0, 4.0, n)))
    A = sp.random(m, n, density=0.5, random_state=rng, format="lil")
    for i in range(m):  # full row rank: every constraint touches a variable
        A[i, (i * 3) % n] = 1.0 + rng.uniform(0.0, 1.0)
    kkt = sp.bmat([[H, A.T], [sp.csc_matrix(A), None]], format="csc")
    kkt.sort_indices()
    return kkt, rng.standard_normal(n + m)


# ------------------------------------------------------------------ agreement
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_matches_factorized_on_quasi_definite_kkts(seed):
    kkt, rhs = _random_kkt(seed)
    x_ldl = LDLSolver().solve(kkt, rhs)
    x_ref = FactorizedSolver().solve(kkt, rhs)
    np.testing.assert_allclose(x_ldl, x_ref, atol=1e-10, rtol=1e-10)
    # The solution satisfies the system to the refinement target, not merely
    # to the acceptance threshold.
    resid = np.abs(kkt @ x_ldl - rhs).max() / (1.0 + np.abs(rhs).max())
    assert resid < 1e-9


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ordering_choices_agree(seed):
    kkt, rhs = _random_kkt(seed, n=10, m=3)
    sols = [
        LDLSolver(ordering=ordering).solve(kkt, rhs)
        for ordering in ("auto", "mmd", "rcm", "natural")
    ]
    for got in sols[1:]:
        np.testing.assert_allclose(got, sols[0], atol=1e-9, rtol=1e-9)


@pytest.fixture
def small_root(monkeypatch):
    """Shrink the dense root: the 16-column corpus is otherwise all root (one
    pivoted LU), and the level-scheduled head with its pivot clamp must stay
    under test on it."""
    monkeypatch.setattr(ldl, "_ROOT_MAX", 4)
    ldl._SYM_CACHE.clear()
    yield
    ldl._SYM_CACHE.clear()


@pytest.mark.parametrize("seed", range(10))
def test_head_plus_root_matches_factorized_and_stays_row_local(small_root, seed):
    kkt, rhs = _random_kkt(seed)
    solver = LDLSolver()
    x = solver.solve(kkt, rhs)
    assert solver._sym.levels and 0 < solver._sym.root.size <= 4
    np.testing.assert_allclose(x, FactorizedSolver().solve(kkt, rhs), atol=1e-9, rtol=1e-9)
    scale = 1.0 + np.random.RandomState(seed).uniform(0.0, 0.2, size=5)
    data_plane = np.ascontiguousarray(scale[:, None] * kkt.data[None, :])
    rhs_plane = np.random.RandomState(seed + 1).standard_normal((5, kkt.shape[0]))
    batch = LDLSolver().solve_blocks(kkt, data_plane, rhs_plane)
    assert not batch.failed
    solo = LDLSolver().solve_blocks(kkt, data_plane[3:4], rhs_plane[3:4])
    np.testing.assert_array_equal(batch.solutions[3], solo.solutions[0])


def test_pivot_clamp_fires_in_the_head_and_is_counted(small_root):
    clamps = 0
    for seed in range(10):
        kkt, rhs = _random_kkt(seed)
        solver = LDLSolver()
        solver.solve(kkt, rhs)
        clamps += solver_telemetry(solver)["pivot_clamps"]
    assert clamps > 0


# -------------------------------------------------------------- symbolic reuse
def test_symbolic_analysis_reused_across_same_pattern_solves():
    kkt, rhs = _random_kkt(3)
    solver = LDLSolver()
    solver.solve(kkt, rhs)
    assert solver.symbolic_reuses == 0
    assert solver.numeric_refactorizations >= 1
    # Same pattern, new values: the symbolic phase must not rerun.
    kkt2 = kkt.copy()
    kkt2.data = kkt2.data * 1.1
    solver.solve(kkt2, rhs)
    assert solver.symbolic_reuses == 1
    # Pattern change: back to a fresh analysis, then reuse resumes.
    bigger, rhs_b = _random_kkt(4, n=14, m=5)
    solver.solve(bigger, rhs_b)
    assert solver.symbolic_reuses == 1
    solver.solve(bigger, rhs_b * 2.0)
    assert solver.symbolic_reuses == 2


def test_telemetry_harvest_exposes_ldl_counters():
    kkt, rhs = _random_kkt(5)
    solver = LDLSolver()
    solver.solve(kkt, rhs)
    telemetry = solver_telemetry(solver)
    assert telemetry["numeric_refactorizations"] >= 1
    assert telemetry["symbolic_reuses"] == 0
    assert {"refinement_solves", "pivot_clamps"} <= set(telemetry)


# -------------------------------------------------------- enrollment invariance
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_batched_rows_bitwise_match_solo_solves(seed):
    kkt, _ = _random_kkt(seed)
    rng = np.random.RandomState(seed + 1)
    B = 5
    scale = 1.0 + rng.uniform(0.0, 0.2, size=B)
    data_plane = np.ascontiguousarray(scale[:, None] * kkt.data[None, :])
    rhs_plane = rng.standard_normal((B, kkt.shape[0]))

    batch = LDLSolver()
    report = batch.solve_blocks(kkt, data_plane, rhs_plane)
    assert not report.failed
    assert batch.block_factorizations == 1
    for b in range(B):
        solo = LDLSolver()
        solo_report = solo.solve_blocks(kkt, data_plane[b : b + 1], rhs_plane[b : b + 1])
        np.testing.assert_array_equal(report.solutions[b], solo_report.solutions[0])


# ----------------------------------------------------------- recovery/rejection
def test_degenerate_but_solvable_system_recovers():
    """An exactly-zero pivot under the natural ordering is clamped and
    refined away — the solve succeeds without any regularisation event."""
    kkt = sp.csc_matrix(
        np.array(
            [
                [4.0, 0.0, 1.0],
                [0.0, 3.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
    )
    kkt.sort_indices()
    rhs = np.array([1.0, -2.0, 0.5])
    solver = LDLSolver(ordering="natural")
    x = solver.solve(kkt, rhs)
    np.testing.assert_allclose(kkt @ x, rhs, atol=1e-10)


def test_singular_system_raises_instead_of_returning_garbage():
    kkt = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    kkt.sort_indices()
    solver = LDLSolver()
    with pytest.raises(KKTSolveError):
        solver.solve(kkt, np.array([1.0, 2.0]))


def test_singular_block_row_fails_alone_not_the_batch():
    kkt, _ = _random_kkt(7)
    n = kkt.shape[0]
    data_plane = np.vstack([kkt.data, np.zeros_like(kkt.data)])
    rhs_plane = np.ones((2, n))
    solver = LDLSolver()
    report = solver.solve_blocks(kkt, data_plane, rhs_plane)
    assert report.failed == [1]
    assert np.isfinite(report.solutions[0]).all()
    np.testing.assert_allclose(kkt @ report.solutions[0], rhs_plane[0], atol=1e-8)


# ------------------------------------------------------------------ validation
@pytest.mark.parametrize(
    "kwargs",
    [
        {"regularization": 0.0},
        {"reg_growth": 1.0},
        {"max_retries": -1},
        {"residual_tol": 0.0},
        {"ordering": "amd"},
    ],
)
def test_constructor_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        LDLSolver(**kwargs)
