"""The dense root of the ``ldl`` KKT backend, and the default that ships it.

``LDLSymbolic`` cuts the elimination tree: columns below the cut keep the
level-scheduled batched planes (the *head*), the at most ``_ROOT_MAX`` columns
above it form one dense block per batch row, factorised by LAPACK (the
*root*).  These tests pin what the lockstep solver relies on:

* **structure** — the root is closed under elimination-tree ancestry and
  head ∪ root partitions the columns, on the KKT patterns of the benchmark
  cases and of two N-2 outage topologies;
* **bitwise invariance** — a row's solution does not depend on batch width,
  position or ``rows=`` slicing, on an all-root and on a head+root pattern;
* **accuracy** — every KKT system of a cold case118s solve is solved to the
  refinement target against the unperturbed matrix and agrees with ``spsolve``;
* **row-local failure** — a system singular *inside the root block* is
  recovered by the signed-shift retry or fails alone;
* **the default** — ``MIPSOptions().kkt_solver`` is ``"ldl"`` and an explicit
  choice (persisted in an artifact, or passed at load) still beats it.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.engine import WarmStartEngine, load_artifact
from repro.grid import get_case
from repro.mips import KKTSolveError, MIPSOptions
from repro.mips import ldl
from repro.mips.ldl import LDLSolver
from repro.opf import OPFModel, OPFOptions
from repro.opf.batch import solve_opf_batch

#: (case, outage branches): the three benchmark cases and two N-2 topologies
#: of ``perfbench``'s case118s screening pool.
PATTERNS = [
    ("case9", ()),
    ("case14", ()),
    ("case118s", ()),
    ("case118s", (4, 27)),
    ("case118s", (22, 147)),
]


def _recorded_kkts(name, outage=(), max_it=150):
    """``(template, data_plane, rhs_plane)`` of every KKT solve of one cold
    width-1 lockstep solve of ``name`` at its nominal loads."""
    case = get_case(name)
    if outage:
        case = case.with_loads(case.bus.Pd, case.bus.Qd)
        case.branch.status[list(outage)] = 0
    seen = []
    original = LDLSolver.solve_blocks

    def recording(self, template, data_plane, rhs_plane):
        seen.append((template.copy(), np.array(data_plane), np.array(rhs_plane)))
        return original(self, template, data_plane, rhs_plane)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LDLSolver, "solve_blocks", recording)
        solve_opf_batch(
            case,
            case.bus.Pd[None, :],
            case.bus.Qd[None, :],
            options=OPFOptions(mips=MIPSOptions(kkt_solver="ldl", max_it=max_it)),
            model=OPFModel(case),
        )
    return seen


@pytest.fixture(scope="module")
def kkts14():
    return _recorded_kkts("case14")


@pytest.fixture(scope="module")
def kkts118():
    return _recorded_kkts("case118s")


def _stack(kkts, count):
    """The first ``count`` recorded systems as one same-pattern batch."""
    template = kkts[0][0]
    data = np.vstack([k[1] for k in kkts[:count]])
    rhs = np.vstack([k[2] for k in kkts[:count]])
    return template, data, rhs


# ------------------------------------------------------------------ structure
@pytest.mark.parametrize("name, outage", PATTERNS)
def test_root_is_ancestor_closed_and_partitions_the_columns(name, outage):
    template = _recorded_kkts(name, outage, max_it=1)[0][0]
    sym = ldl._symbolic_for_pattern(template, "auto")
    n = sym.n
    is_root = np.zeros(n, dtype=bool)
    is_root[sym.root] = True
    assert sym.root.size <= ldl._ROOT_MAX
    # head ∪ root partitions the columns.
    head = np.concatenate([plan.cols for plan in sym.levels] + [np.zeros(0, dtype=int)])
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


def test_symbolic_cache_holds_an_n2_screening_sweep():
    """18 topologies per ``nk118_cold_2w`` pass must not evict each other."""
    assert ldl._SYM_CACHE_MAX >= 18


# --------------------------------------------------------- bitwise invariance
@pytest.mark.parametrize("kkts", ["kkts14", "kkts118"])
def test_row_solution_is_bitwise_independent_of_batch_and_position(kkts, request):
    template, data, rhs = _stack(request.getfixturevalue(kkts), 16)
    batch = LDLSolver().solve_blocks(template, data, rhs)
    assert not batch.failed
    order = np.random.RandomState(0).permutation(16)
    shuffled = LDLSolver().solve_blocks(template, data[order], rhs[order])
    np.testing.assert_array_equal(shuffled.solutions, batch.solutions[order])
    for b in (0, 7, 15):
        alone = LDLSolver().solve_blocks(template, data[b : b + 1], rhs[b : b + 1])
        np.testing.assert_array_equal(alone.solutions[0], batch.solutions[b])


@pytest.mark.parametrize("kkts", ["kkts14", "kkts118"])
def test_numeric_solve_rows_slicing_is_bitwise(kkts, request):
    template, data, rhs = _stack(request.getfixturevalue(kkts), 16)
    sym = ldl._symbolic_for_pattern(sp.csc_matrix(template), "auto")
    # The solver's own clamp planes, so the head's zero pivots stay finite.
    diag = np.zeros((16, sym.n))
    diag[:, sym.diag_cols] = data[:, sym.diag_src]
    eps = LDLSolver.pivot_clamp * (1.0 + np.abs(diag))
    numeric = ldl._factor_planes(sym, data, clamp=(eps, np.where(diag > 0.0, 1.0, -1.0)))
    full = numeric.solve(rhs)
    assert np.isfinite(full).all()
    rows = np.array([11, 2, 5])
    np.testing.assert_array_equal(numeric.solve(rhs[rows], rows=rows), full[rows])


# ------------------------------------------------------------------- accuracy
def test_cold_case118s_systems_meet_the_refinement_target(kkts118):
    """Backward error ≤ ``refine_tol`` on every system of a cold solve, measured
    with scipy's own matvec on the unperturbed matrix; forward agreement with
    ``spsolve`` to what each system's conditioning permits.  (A flat 1e-8 is
    not attainable: late interior-point KKTs reach ‖A⁻¹‖ ~ 1e9 and SuperLU
    under two orderings agrees with itself only to 1e-4 there.)"""
    template, data, rhs = _stack(kkts118, len(kkts118))
    assert len(kkts118) > 40  # one cold solve's worth of iterations
    report = LDLSolver().solve_blocks(template, data, rhs)
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
    sym = ldl._symbolic_for_pattern(sp.csc_matrix(template), "auto")
    p = sym.perm[sym.root[-1]]
    cols = np.repeat(np.arange(template.shape[1]), np.diff(template.indptr))
    broken = data_row.copy()
    broken[(template.indices == p) | (cols == p)] = 0.0
    return broken, p


@pytest.mark.parametrize("kkts", ["kkts14", "kkts118"])
def test_singular_root_block_recovers_or_fails_alone(kkts, request):
    template, data, rhs = _stack(request.getfixturevalue(kkts), 6)
    reference = LDLSolver()
    healthy = reference.solve_blocks(template, data, rhs)
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

    solver = LDLSolver()
    report = solver.solve_blocks(template, data, rhs)
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
        LDLSolver().solve(bad, rhs[4])


# ---------------------------------------------------------------- the default
def test_ldl_is_the_default_and_explicit_choices_beat_it(trained_trainer9, case9_fixture, tmp_path):
    assert MIPSOptions().kkt_solver == "ldl"
    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        assert engine.opf_options.mips.kkt_solver == "ldl"
    reference = OPFOptions(mips=MIPSOptions(kkt_solver="factorized"))
    with WarmStartEngine.from_trainer(trained_trainer9, opf_options=reference) as engine:
        path = engine.save_artifact(tmp_path / "factorized.npz")
    # The artifact's meta records the backend it was built with: it loads and
    # solves with that backend, whatever the default has become since.
    with load_artifact(path, case9_fixture) as loaded:
        assert loaded.opf_options.mips.kkt_solver == "factorized"
        sweep = loaded.serve_loads(case9_fixture.bus.Pd[None, :], case9_fixture.bus.Qd[None, :])
        assert sweep.outcomes[0].converged
        assert "refinement_solves" not in sweep.outcomes[0].kkt_telemetry
    override = OPFOptions(mips=MIPSOptions(kkt_solver="ldl"))
    with load_artifact(path, case9_fixture, opf_options=override) as loaded:
        assert loaded.opf_options.mips.kkt_solver == "ldl"
        sweep = loaded.serve_loads(case9_fixture.bus.Pd[None, :], case9_fixture.bus.Qd[None, :])
        assert sweep.outcomes[0].converged
        assert sweep.outcomes[0].kkt_telemetry["refinement_solves"] >= 0
