"""Property tests for the KKT solve, the same-pattern LDLᵀ refactorisation.

``LDLSolver`` promises drop-in agreement with the SuperLU reference
(:mod:`reference.kkt`) over the symmetric quasi-definite KKT systems the
interior-point loop actually produces, plus three structural guarantees of
its own:

* **one analysis per plan** — the lockstep plan of a model analyses its KKT
  pattern once, and every numeric refactorisation of every solve on that
  model replays it,
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

from reference.kkt import FactorizedSolver, KKTSolveError, recorded_kkts, solve, solver_for
from repro.grid import get_case
from repro.mips import ldl
from repro.mips.ldl import LDLSolver, LDLSymbolic
from repro.opf import OPFModel, solve_opf_batch


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
    x_ldl = solve(kkt, rhs)
    x_ref = solve(kkt, rhs, solver_for(kkt, FactorizedSolver))
    np.testing.assert_allclose(x_ldl, x_ref, atol=1e-10, rtol=1e-10)
    # The solution satisfies the system to the refinement target, not merely
    # to the acceptance threshold.
    resid = np.abs(kkt @ x_ldl - rhs).max() / (1.0 + np.abs(rhs).max())
    assert resid < 1e-9


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ordering_choices_agree(seed):
    """Minimum degree, reverse Cuthill-McKee and the natural order solve to
    the same answer, so the symbolic analysis may keep whichever candidate
    has the cheapest numeric phase.  The dense root is shrunk so the order
    reaches the head."""
    kkt, rhs = _random_kkt(seed, n=10, m=3)
    sols = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ldl, "_ROOT_MAX", 4)
        candidates = ldl._etree_perms(kkt)
        assert len(candidates) == 2
        for perm in [*candidates, np.arange(kkt.shape[0])]:
            patch.setattr(ldl, "_etree_perms", lambda csc, perm=perm: [perm])
            solver = solver_for(kkt)
            sols.append(solve(kkt, rhs, solver))
            assert solver.symbolic.levels
    for got in sols[1:]:
        np.testing.assert_allclose(got, sols[0], atol=1e-9, rtol=1e-9)


@pytest.fixture
def small_root(monkeypatch):
    """Shrink the dense root: the 16-column corpus is otherwise all root (one
    pivoted LU), and the level-scheduled head with its pivot clamp must stay
    under test on it."""
    monkeypatch.setattr(ldl, "_ROOT_MAX", 4)


@pytest.mark.parametrize("seed", range(10))
def test_head_plus_root_matches_factorized_and_stays_row_local(small_root, seed):
    kkt, rhs = _random_kkt(seed)
    solver = solver_for(kkt)
    x = solve(kkt, rhs, solver)
    assert solver.symbolic.levels and 0 < solver.symbolic.root.size <= 4
    np.testing.assert_allclose(
        x, solve(kkt, rhs, solver_for(kkt, FactorizedSolver)), atol=1e-9, rtol=1e-9
    )
    scale = 1.0 + np.random.RandomState(seed).uniform(0.0, 0.2, size=5)
    data_plane = np.ascontiguousarray(scale[:, None] * kkt.data[None, :])
    rhs_plane = np.random.RandomState(seed + 1).standard_normal((5, kkt.shape[0]))
    batch = solver_for(kkt).solve_blocks(data_plane, rhs_plane)
    assert not batch.failed
    solo = solver_for(kkt).solve_blocks(data_plane[3:4], rhs_plane[3:4])
    np.testing.assert_array_equal(batch.solutions[3], solo.solutions[0])


def test_pivot_clamp_fires_in_the_head_and_is_counted(small_root):
    clamps = 0
    for seed in range(10):
        kkt, rhs = _random_kkt(seed)
        solver = solver_for(kkt)
        solve(kkt, rhs, solver)
        clamps += solver.telemetry()["pivot_clamps"]
    assert clamps > 0


# ------------------------------------------------------------ one analysis
def test_repeated_solves_on_one_model_analyse_once(monkeypatch):
    """The symbolic phase runs when a model's lockstep plan is built, and
    never again: repeated ``solve_opf_batch`` calls on one model, cold and
    fixed-σ rows, widths 1 and 3, construct one ``LDLSymbolic`` and factorise
    numerically every iteration.  A second model builds its own plan, and
    with it a second analysis."""
    analyses = []
    analyse = LDLSymbolic.analyse.__func__

    def counting(cls, template):
        analyses.append(template.shape)
        return analyse(cls, template)

    monkeypatch.setattr(LDLSymbolic, "analyse", classmethod(counting))
    case = get_case("case14")
    model = OPFModel(case)
    Pd, Qd = case.bus.Pd[None, :], case.bus.Qd[None, :]
    for width in (1, 3, 1):
        rows = solve_opf_batch(case, np.repeat(Pd, width, 0), np.repeat(Qd, width, 0), model=model)
        assert all(r.success for r in rows)
        assert rows[0].kkt_telemetry["numeric_refactorizations"] >= rows[0].iterations
    assert analyses == [model.batched.plan.assembler.kkt_template.shape]
    solve_opf_batch(case, Pd, Qd, model=OPFModel(case))
    assert len(analyses) == 2


def test_telemetry_harvest_exposes_ldl_counters():
    kkt, rhs = _random_kkt(5)
    solver = solver_for(kkt)
    solve(kkt, rhs, solver)
    telemetry = solver.telemetry()
    assert telemetry["numeric_refactorizations"] >= 1
    assert list(telemetry) == [
        "numeric_refactorizations",
        "block_factorizations",
        "refinement_solves",
        "corrector_solves",
        "pivot_clamps",
    ]


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

    batch = solver_for(kkt)
    report = batch.solve_blocks(data_plane, rhs_plane)
    assert not report.failed
    assert batch.block_factorizations == 1
    for b in range(B):
        solo = solver_for(kkt)
        solo_report = solo.solve_blocks(data_plane[b : b + 1], rhs_plane[b : b + 1])
        np.testing.assert_array_equal(report.solutions[b], solo_report.solutions[0])


# ----------------------------------------------------------- recovery/rejection
def test_degenerate_but_solvable_system_recovers():
    """The production ordering of the first case118s KKT meets an exactly
    zero pivot in the head (a cold case118s solve clamps about once per
    row-iteration): it is clamped and refined away, and the solve succeeds
    without any regularisation event."""
    ((template, data, rhs),) = recorded_kkts("case118s", max_it=1)
    solver = solver_for(template)
    report = solver.solve_blocks(data, rhs)
    assert solver.pivot_clamps == 1
    assert not report.failed and solver.regularizations == 0
    assert solver.numeric_refactorizations == 1  # no shifted retry either
    matrix = sp.csc_matrix((data[0], template.indices, template.indptr), shape=template.shape)
    residual = np.abs(matrix @ report.solutions[0] - rhs[0]).max()
    assert residual <= LDLSolver.refine_tol * (1.0 + np.abs(rhs[0]).max())


def test_singular_system_raises_instead_of_returning_garbage():
    kkt = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    kkt.sort_indices()
    with pytest.raises(KKTSolveError):
        solve(kkt, np.array([1.0, 2.0]))


def test_singular_block_row_fails_alone_not_the_batch():
    kkt, _ = _random_kkt(7)
    n = kkt.shape[0]
    data_plane = np.vstack([kkt.data, np.zeros_like(kkt.data)])
    rhs_plane = np.ones((2, n))
    report = solver_for(kkt).solve_blocks(data_plane, rhs_plane)
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
    """The solve takes no parameter but its analysis: its constants are
    class attributes and the ordering is always the cheaper of minimum degree
    and RCM."""
    kkt, _ = _random_kkt(0)
    with pytest.raises(TypeError, match=next(iter(kwargs))):
        LDLSolver(LDLSymbolic.analyse(kkt), **kwargs)
