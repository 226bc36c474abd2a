"""The predictor–corrector cascade of a cold row, tier by tier.

``mips_batch`` solves an iteration's plane with one ``solve_blocks`` call;
its ``_Centring`` then runs the cold rows' cascade on the returned
:class:`~repro.mips.ldl.BlockSolveReport`:

1. a row whose predictor was accepted solves its corrector on the same
   factor (``report.resolve``), accepted under the strict residual test;
2. a row whose corrector is rejected solves its fixed-σ fallback on that
   factor — a back-substitution, no numeric factorisation;
3. a row whose predictor failed, or whose fallback failed on the factor,
   takes exactly one fresh ``solve_blocks`` pass on its fallback.

The rare tiers are reached here on purpose, not by chance: the plane of a
real cold case118s iteration is captured once and its cascade rerun with a
handle that rejects a chosen row.  Every tier checks its row against the same
cascade run on that row alone (bit for bit) and the other rows against the
unforced run.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import repro.mips.batch as batch_module
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import MIPSOptions
from repro.mips.ldl import BlockSolveReport, LDLSolver
from repro.opf import OPFModel, solve_opf_batch

#: The captured plane row every test forces through a tier.
CHOSEN = 1


@pytest.fixture(scope="module")
def plane():
    """The third iteration of three cold case118s rows: the plan, the KKT
    plane and everything the centring was built from."""
    case = get_case("case118s")
    samples = sample_loads(case, 3, variation=0.05, seed=4)
    Pd = np.array([s.Pd for s in samples])
    Qd = np.array([s.Qd for s in samples])
    captured = []
    solve = batch_module._Centring.solve

    def capturing(self, solver, data_plane):
        captured.append(SimpleNamespace(
            plan=self._plan, kkt=np.array(data_plane), floor=self._floor.copy(),
            rhs=self._rhs.copy(), Jh=self._Jh.copy(),
            H=self._H.copy(), z=self._z.copy(), mu=self._mu.copy(), gamma=self._gamma.copy(),
        ))
        return solve(self, solver, data_plane)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_module._Centring, "solve", capturing)
        solve_opf_batch(case, Pd, Qd, model=OPFModel(case), options=MIPSOptions(max_it=3))
    state = captured[-1]
    assert len(captured) == 3 and state.kkt.shape[0] == 3
    return state


def _run(state, keep, reject=(), fail_predictor=False):
    """The cascade over plane rows ``keep`` with :data:`CHOSEN` forced:
    ``reject`` names the ``resolve`` calls (0 = corrector, 1 = fallback)
    that refuse it, and ``fail_predictor`` voids its first solution.
    Returns the solutions, the centring, the solver, the row widths of the
    ``solve_blocks`` calls and the rows of every ``resolve`` call."""
    keep = np.asarray(keep)
    pos = int(np.flatnonzero(keep == CHOSEN)[0])
    centring = batch_module._Centring(
        state.plan, np.arange(keep.size),
        *(
            a[keep]
            for a in (state.floor, state.rhs, state.Jh, state.H, state.z, state.mu, state.gamma)
        ),
    )
    solver = LDLSolver(state.plan.symbolic)
    widths, resolves = [], []
    solve_blocks, resolve = solver.solve_blocks, BlockSolveReport.resolve

    def forcing_solve_blocks(data_plane, rhs_plane, tol=None):
        widths.append(len(rhs_plane))
        report = solve_blocks(data_plane, rhs_plane, tol)
        if fail_predictor and len(widths) == 1:
            report.solutions[pos] = np.nan
            report.failed = sorted(report.failed + [pos])
        return report

    def forcing_resolve(self, rows, rhs, strict):
        x, passed = resolve(self, rows, rhs, strict)
        if len(resolves) in reject:
            passed = passed & (rows != pos)
        resolves.append([int(keep[r]) for r in rows])
        return x, passed

    solver.solve_blocks = forcing_solve_blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BlockSolveReport, "resolve", forcing_resolve)
        report = centring.solve(solver, state.kkt[keep])
    return SimpleNamespace(
        x=report.solutions, pos=pos, centring=centring, solver=solver, widths=widths,
        resolves=resolves, failed=report.failed,
    )


def _rhs(state, row, target):
    """Row ``row``'s right-hand side for the per-constraint target ``target``."""
    nx = state.plan.nx
    shift = np.zeros((1, nx))
    state.plan.add_jh_transpose(shift, state.Jh[[row]], target[None, :] / state.z[[row]])
    rhs = state.rhs[row].copy()
    rhs[:nx] -= shift[0]
    return rhs


def _residual(state, row, x, rhs):
    t = state.plan.assembler.kkt_template
    kkt = sp.csc_matrix((state.kkt[row], t.indices, t.indptr), shape=t.shape)
    return np.abs(kkt @ x - rhs).max() / (1.0 + np.abs(rhs).max())


def _assert_row_local(state, forced, **forcing):
    """The chosen row is its one-row cascade, bit for bit."""
    alone = _run(state, [CHOSEN], **forcing)
    np.testing.assert_array_equal(forced.x[forced.pos], alone.x[0])
    np.testing.assert_array_equal(
        forced.centring.target[forced.pos], alone.centring.target[0]
    )


def _assert_neighbours_untouched(state, forced):
    plain = _run(state, [0, 1, 2])
    for b in (0, 2):
        np.testing.assert_array_equal(forced.x[b], plain.x[b])


def test_accepted_corrector_is_one_factor_and_one_back_substitution(plane):
    run = _run(plane, [0, 1, 2])
    assert run.widths == [3] and run.failed == []
    assert run.resolves == [[0, 1, 2]]  # every corrector, no fallback
    assert run.solver.numeric_refactorizations == 1
    assert run.solver.corrector_solves == 3
    target = run.centring.target[CHOSEN]
    assert not np.all(target == plane.gamma[CHOSEN])  # the per-constraint corrector γ
    assert run.centring.sigma_mu[CHOSEN] > 0.0
    rhs = _rhs(plane, CHOSEN, target)
    assert _residual(plane, CHOSEN, run.x[CHOSEN], rhs) <= LDLSolver.residual_tol
    _assert_row_local(plane, run)


def test_rejected_corrector_falls_back_on_the_same_factor(plane):
    run = _run(plane, [0, 1, 2], reject=(0,))
    assert run.widths == [3] and run.failed == []
    assert run.resolves == [[0, 1, 2], [CHOSEN]]
    # The fallback is a second back-substitution, not a factorisation.
    assert run.solver.numeric_refactorizations == 1
    assert run.solver.corrector_solves == 4
    gamma = plane.gamma[CHOSEN]
    assert np.all(run.centring.target[CHOSEN] == gamma)
    assert run.centring.sigma_mu[CHOSEN] == gamma
    rhs = _rhs(plane, CHOSEN, np.full(plane.z.shape[1], gamma))
    assert _residual(plane, CHOSEN, run.x[CHOSEN], rhs) <= LDLSolver.residual_tol
    _assert_row_local(plane, run, reject=(0,))
    _assert_neighbours_untouched(plane, run)


@pytest.mark.parametrize(
    "forcing, resolved",
    [
        ({"fail_predictor": True}, [[0, 2]]),
        ({"reject": (0, 1)}, [[0, 1, 2], [CHOSEN]]),
    ],
    ids=["failed predictor", "fallback failed on its factor"],
)
def test_lost_row_gets_exactly_one_fresh_pass(plane, forcing, resolved):
    run = _run(plane, [0, 1, 2], **forcing)
    assert run.widths == [3, 1] and run.failed == []
    assert run.resolves == resolved
    assert run.solver.numeric_refactorizations == 2
    # The fresh pass is the fixed-σ solve a warm row takes: the plain solve
    # of the fallback right-hand side at the default refinement target.
    gamma = plane.gamma[CHOSEN]
    rhs = _rhs(plane, CHOSEN, np.full(plane.z.shape[1], gamma))
    fresh = LDLSolver(plane.plan.symbolic).solve_blocks(plane.kkt[[CHOSEN]], rhs[None, :])
    np.testing.assert_array_equal(run.x[CHOSEN], fresh.solutions[0])
    assert np.all(run.centring.target[CHOSEN] == gamma)
    _assert_row_local(plane, run, **forcing)
    _assert_neighbours_untouched(plane, run)
