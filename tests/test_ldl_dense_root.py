"""The dense root of the LDLᵀ KKT solve.

``LDLSymbolic`` cuts the elimination tree: columns below the cut keep the
level-scheduled batched planes (the *head*), the at most ``_ROOT_MAX`` columns
above it form one dense block per batch row, factorised by LAPACK (the
*root*).  These tests pin what the lockstep solver relies on:

* **structure** — the root is closed under elimination-tree ancestry and
  head ∪ root partitions the columns, on the KKT patterns of the benchmark
  cases and of two N-2 outage topologies;
* **bitwise invariance** — a row's solution does not depend on batch width,
  position or ``rows=`` slicing, on an all-root and on a head+root pattern,
  at the narrow widths 2, 3 and 5 too (each width has its own flat scatter
  offsets), and the offsets held stay within their row bound;
* **accuracy** — every KKT system of a fixed-σ case118s solve from the
  default start is solved to the
  refinement target against the unperturbed matrix and agrees with ``spsolve``;
* **row-local failure** — a system singular *inside the root block* is
  recovered by the signed-shift retry or fails alone, and the pivot clamps
  of those retries are counted.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from reference.kkt import KKTSolveError, recorded_kkts, solve, solver_for
from repro.mips import ldl
from repro.mips.ldl import LDLSolver, LDLSymbolic
from repro.utils.planes import Targets

#: (case, outage branches): the three benchmark cases and two N-2 topologies
#: of ``perfbench``'s case118s screening pool.
PATTERNS = [
    ("case9", ()),
    ("case14", ()),
    ("case118s", ()),
    ("case118s", (4, 27)),
    ("case118s", (22, 147)),
]


@pytest.fixture(scope="module")
def kkts14():
    return recorded_kkts("case14")


@pytest.fixture(scope="module")
def kkts118():
    return recorded_kkts("case118s")


def _stack(kkts, count):
    """The first ``count`` recorded systems as one same-pattern batch."""
    template = kkts[0][0]
    data = np.vstack([k[1] for k in kkts[:count]])
    rhs = np.vstack([k[2] for k in kkts[:count]])
    return template, data, rhs


# ------------------------------------------------------------------ structure
@pytest.mark.parametrize("name, outage", PATTERNS)
def test_root_is_ancestor_closed_and_partitions_the_columns(name, outage):
    template = recorded_kkts(name, outage, max_it=1)[0][0]
    sym = LDLSymbolic.analyse(template)
    n = sym.n
    is_root = np.zeros(n, dtype=bool)
    is_root[sym.root] = True
    assert sym.root.size <= ldl._ROOT_MAX
    # head ∪ root partitions the columns.
    head = np.concatenate([plan.cols.idx for plan in sym.levels] + [np.zeros(0, dtype=int)])
    assert np.array_equal(np.sort(np.concatenate([head, sym.root])), np.arange(n))
    # Closed under ancestry: parents and L row indices of root columns are root.
    parents = sym.parent[sym.root]
    assert is_root[parents[parents >= 0]].all()
    l_cols = np.repeat(np.arange(n), np.diff(sym.l_indptr))
    assert is_root[sym.l_rows[is_root[l_cols]]].all()
    # The planes keep L slots for head columns only.
    assert sym.nnz_head == np.count_nonzero(~is_root[l_cols])
    if n <= ldl._ROOT_MAX:
        assert sym.root.size == n and not sym.levels and sym.nnz_head == 0
    else:
        assert 0 < sym.root.size and 0 < len(sym.levels) == sym.cut


# --------------------------------------------------------- bitwise invariance
@pytest.mark.parametrize("kkts", ["kkts14", "kkts118"])
def test_row_solution_is_bitwise_independent_of_batch_and_position(kkts, request):
    template, data, rhs = _stack(request.getfixturevalue(kkts), 16)
    batch = solver_for(template).solve_blocks(data, rhs)
    assert not batch.failed
    order = np.random.RandomState(0).permutation(16)
    shuffled = solver_for(template).solve_blocks(data[order], rhs[order])
    np.testing.assert_array_equal(shuffled.solutions, batch.solutions[order])
    for b in (0, 7, 15):
        alone = solver_for(template).solve_blocks(data[b : b + 1], rhs[b : b + 1])
        np.testing.assert_array_equal(alone.solutions[0], batch.solutions[b])
    for width in (2, 3, 5):
        sub = order[:width]
        narrow = solver_for(template).solve_blocks(data[sub], rhs[sub])
        np.testing.assert_array_equal(narrow.solutions, batch.solutions[sub])


@pytest.mark.parametrize("kkts", ["kkts14", "kkts118"])
def test_numeric_solve_rows_slicing_is_bitwise(kkts, request):
    template, data, rhs = _stack(request.getfixturevalue(kkts), 16)
    sym = LDLSymbolic.analyse(template)
    # The solver's own clamp planes, so the head's zero pivots stay finite.
    diag = np.zeros((16, sym.n))
    diag[:, sym.diag_cols.idx] = data[:, sym.diag_src]
    eps = LDLSolver.pivot_clamp * (1.0 + np.abs(diag))
    numeric = ldl._factor_planes(sym, data, clamp=(eps, np.where(diag > 0.0, 1.0, -1.0)))
    full = numeric.solve(rhs)
    assert np.isfinite(full).all()
    for rows in ([4], [11, 2], [11, 2, 5], [15, 0, 9, 3, 6]):
        rows = np.array(rows)
        np.testing.assert_array_equal(numeric.solve(rhs[rows], rows=rows), full[rows])


def _cached_rows(targets):
    """Rows of flat offsets a target set holds (at most ``MAX_ROWS``)."""
    return 0 if targets._offsets is None else targets._offsets[1]


def _targets(sym):
    """Every scatter-target set of a symbolic analysis."""
    owners = [sym] + list(sym.levels)
    found = []
    for owner in owners:
        names = getattr(owner, "__slots__", ()) or vars(owner)
        found += [getattr(owner, a) for a in names if isinstance(getattr(owner, a), Targets)]
    return found


def test_scatter_offsets_stay_within_their_row_bound(kkts118):
    """Widths 1–16 and one beyond the bound: each target set holds one offset
    array of at most ``MAX_ROWS`` rows, whatever widths it has served."""
    template, data, rhs = _stack(kkts118, 20)
    solver = solver_for(template)
    for width in [*range(1, 17), 20]:
        solver.solve_blocks(data[:width], rhs[:width])
    targets = _targets(solver.symbolic)
    assert len(targets) > 2 * len(solver.symbolic.levels)
    assert max(_cached_rows(t) for t in targets) == Targets.MAX_ROWS


# ------------------------------------------------------------------- accuracy
def test_cold_case118s_systems_meet_the_refinement_target(kkts118):
    """Backward error ≤ ``refine_tol`` on every system of a cold solve, measured
    with scipy's own matvec on the unperturbed matrix; forward agreement with
    ``spsolve`` to what each system's conditioning permits.  (A flat 1e-8 is
    not attainable: late interior-point KKTs reach ‖A⁻¹‖ ~ 1e9 and SuperLU
    under two orderings agrees with itself only to 1e-4 there.)"""
    template, data, rhs = _stack(kkts118, len(kkts118))
    assert len(kkts118) > 40  # one cold solve's worth of iterations
    report = solver_for(template).solve_blocks(data, rhs)
    assert not report.failed
    for b in range(len(kkts118)):
        matrix = sp.csc_matrix((data[b], template.indices, template.indptr), shape=template.shape)
        x = report.solutions[b]
        residual = np.abs(matrix @ x - rhs[b]).max()
        assert residual <= LDLSolver.refine_tol * (1.0 + np.abs(rhs[b]).max())
        if b % 8 == 0:
            reference = spla.spsolve(matrix, rhs[b])
            ref_residual = np.abs(matrix @ reference - rhs[b]).max()
            inv_norm = np.abs(np.linalg.inv(matrix.toarray())).sum(axis=1).max()
            assert np.abs(x - reference).max() <= inv_norm * (residual + ref_residual) + 1e-12
            if b == 0:  # the cold start's first system is well conditioned
                assert np.abs(x - reference).max() <= 1e-8 * (1.0 + np.abs(reference).max())


# ----------------------------------------------------------- row-local failure
def _singular_in_root(template, data_row):
    """``data_row`` with one root column's row and column zeroed: every head
    contribution to it vanishes too, so the zero pivot sits in the root block."""
    sym = LDLSymbolic.analyse(template)
    p = sym.perm[sym.root[-1]]
    cols = np.repeat(np.arange(template.shape[1]), np.diff(template.indptr))
    broken = data_row.copy()
    broken[(template.indices == p) | (cols == p)] = 0.0
    return broken, p


@pytest.mark.parametrize("kkts", ["kkts14", "kkts118"])
def test_singular_root_block_recovers_or_fails_alone(kkts, request):
    template, data, rhs = _stack(request.getfixturevalue(kkts), 6)
    reference = solver_for(template)
    healthy = reference.solve_blocks(data, rhs)
    assert not healthy.failed and not healthy.regularizations[[1, 4]].any()

    data = data.copy()
    rhs = rhs.copy()
    # Row 1: consistent singular system (zero row, zero right-hand side) —
    # the signed shift makes it solvable and the true residual accepts it.
    data[1], p = _singular_in_root(template, data[1])
    rhs[1, p] = 0.0
    # Row 4: inconsistent singular system — no shift can satisfy it.
    data[4], p = _singular_in_root(template, data[4])
    rhs[4, p] = 1.0 + np.abs(rhs[4]).max()

    solver = solver_for(template)
    report = solver.solve_blocks(data, rhs)
    assert report.failed == [4]
    assert np.isnan(report.solutions[4]).all()
    matrix = sp.csc_matrix((data[1], template.indices, template.indptr), shape=template.shape)
    residual = np.abs(matrix @ report.solutions[1] - rhs[1]).max()
    assert residual <= solver.residual_tol * (1.0 + np.abs(rhs[1]).max())
    # Only the accepted recovery counts as a regularisation.
    assert list(report.regularizations - healthy.regularizations) == [0, 1, 0, 0, 0, 0]
    assert solver.regularizations == reference.regularizations + 1
    for b in (0, 2, 3, 5):
        np.testing.assert_array_equal(report.solutions[b], healthy.solutions[b])

    bad = sp.csc_matrix((data[4], template.indices, template.indptr), shape=template.shape)
    with pytest.raises(KKTSolveError):
        solve(bad, rhs[4])


def test_pivot_clamps_count_the_clamps_of_signed_shift_retries(kkts118, monkeypatch):
    """A shift below ``pivot_clamp`` leaves the head's structural zero pivots
    to the clamp in every retry, and each of those clamps is counted — while
    a shift above it clamps nothing new."""
    template, data, rhs = _stack(kkts118, 1)
    # Row 0: the cold start's first system.  Row 1: the same system made
    # singular in the root, consistently — its first pass stalls.
    data = np.vstack([data, data])
    rhs = np.vstack([rhs, rhs])
    data[1], p = _singular_in_root(template, data[1])
    rhs[1, p] = 0.0
    with monkeypatch.context() as patch:
        patch.setattr(LDLSolver, "regularization", 1e-20)
        patch.setattr(LDLSolver, "max_retries", 0)
        first_pass = solver_for(template)
        first_pass.solve_blocks(data, rhs)
    assert first_pass.pivot_clamps >= 1  # case118s clamps on healthy rows too

    with monkeypatch.context() as patch:
        patch.setattr(LDLSolver, "regularization", 1e-20)
        tiny = solver_for(template)
        tiny_report = tiny.solve_blocks(data, rhs)
    retries = tiny.numeric_refactorizations - 1
    assert retries >= 1
    # Each retry refactorises the stalled row alone, and it clamps again.
    assert tiny.pivot_clamps == first_pass.pivot_clamps + retries

    healthy_shift = solver_for(template)
    report = healthy_shift.solve_blocks(data, rhs)
    assert healthy_shift.numeric_refactorizations > 1
    assert healthy_shift.pivot_clamps == first_pass.pivot_clamps
    assert not tiny_report.failed and not report.failed
    # Telemetry only: the row that needed no retry keeps its bits.
    np.testing.assert_array_equal(tiny_report.solutions[0], report.solutions[0])
