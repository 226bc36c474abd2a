"""The predictor–corrector cascade of a cold row, tier by tier.

``mips_batch`` solves an iteration's plane with one ``solve_blocks`` call;
its ``_Centring`` then runs the cold rows' cascade on the returned
:class:`~repro.mips.ldl.BlockSolveReport`:

1. a row whose predictor was accepted solves its corrector on the same
   factor (``report.resolve``), accepted under the strict residual test;
2. a row whose corrector is rejected solves its fixed-σ fallback on that
   factor — a back-substitution, no numeric factorisation;
3. a row whose predictor failed, or whose fallback failed on that factor
   too, joins ``report.failed`` and retires "numerically failed (singular
   KKT system)" that iteration, like a fixed-σ row whose solve failed: no
   second ``solve_blocks`` call.

Below the cascade, ``solve_blocks`` retries a row whose refined residual
stalls under an escalating signed diagonal shift, and an improving retry's
planes become that row's factor.

The rare tiers are reached here on purpose, not by chance: the plane of a
real cold case118s iteration is captured once and its cascade rerun with a
handle that rejects a chosen row.  Every tier checks its row against the same
cascade run on that row alone (bit for bit) and the other rows against the
unforced run.  The two recoveries that stay are pinned on the real rows
that need them, with their firings counted, so that deleting either fails
a test: a cold case57s row converges through one shifted retry, and a
case118s row started from its nearest training solution through one
same-factor fallback.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import repro.mips.batch as batch_module
import repro.mips.ldl as ldl_module
from reference.starts import nearest_one
from repro.data.dataset import generate_dataset
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import MIPSOptions
from repro.mips.ldl import BlockSolveReport, LDLSolver
from repro.mtl import warm_starts_from_predictions
from repro.opf import OPFModel, certify_opf, solve_opf_batch
from repro.parallel import Scenario, ScenarioSet

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
def test_lost_row_retires_on_its_one_factor(plane, forcing, resolved):
    run = _run(plane, [0, 1, 2], **forcing)
    assert run.widths == [3] and run.failed == [CHOSEN]
    assert run.resolves == resolved
    assert run.solver.numeric_refactorizations == 1
    assert np.isnan(run.x[CHOSEN]).all()
    assert _run(plane, [CHOSEN], **forcing).failed == [0]
    _assert_row_local(plane, run, **forcing)
    _assert_neighbours_untouched(plane, run)


def _count_tiers(monkeypatch):
    """Count the shifted refactorisations and the same-factor fallbacks."""
    counts = {"shifted": 0, "fallback": 0}
    factor, fallback = ldl_module._factor_planes, batch_module._Centring._fallback

    def counting_factor(sym, data_plane, shift=None, **kwargs):
        counts["shifted"] += shift is not None
        return factor(sym, data_plane, shift=shift, **kwargs)

    def counting_fallback(self, rows):
        counts["fallback"] += rows.size
        return fallback(self, rows)

    monkeypatch.setattr(ldl_module, "_factor_planes", counting_factor)
    monkeypatch.setattr(batch_module._Centring, "_fallback", counting_fallback)
    return counts


def _solve_certified(case, Pd, Qd, warm_starts=None):
    (row,) = solve_opf_batch(case, Pd, Qd, warm_starts=warm_starts, model=OPFModel(case))
    assert row.success, row.message
    assert certify_opf(case, row, Pd[0], Qd[0]).holds()
    return row


def test_shifted_row_solves_its_corrector_on_the_retry_factor(monkeypatch):
    """A cold QP slot whose equalities are duplicated is singular at every
    iteration: each shifted retry that heals its predictor becomes the
    row's factor, so its corrector is accepted there (no fallback) and it
    converges beside two healthy rows."""
    from test_mips_batch import _singular_slot_qp

    f_fcn, x0, kwargs = _singular_slot_qp()
    counts = _count_tiers(monkeypatch)
    results = batch_module.mips_batch(f_fcn, x0, **kwargs)
    assert all(r.converged for r in results)
    assert [r.kkt_regularizations > 0 for r in results] == [False, True, False]
    assert counts["shifted"] > 0 and counts["fallback"] == 0


def test_cold_row_converges_through_one_shifted_retry(monkeypatch):
    """``sample_loads(case57s, 128, 0.2, seed=10)`` row 1, cold: one
    iteration's factor stalls and one signed-shift retry heals it."""
    case = get_case("case57s")
    samples = sample_loads(case, 128, variation=0.2, seed=10)[1:2]
    Pd, Qd = np.array([s.Pd for s in samples]), np.array([s.Qd for s in samples])
    counts = _count_tiers(monkeypatch)
    row = _solve_certified(case, Pd, Qd)
    assert row.iterations == 11
    assert counts == {"shifted": 1, "fallback": 0}


def test_nn1_row_converges_through_one_same_factor_fallback(monkeypatch):
    """Row 27 of ``sample_loads(case118s, 64, 0.05, seed=12345)``, started
    from the nearest of the 40 rows of ``generate_dataset(case118s, 40,
    0.05, seed=0)``: in its endgame one corrector is rejected and the
    fixed-σ fallback on the same factor is accepted."""
    case = get_case("case118s")
    table = generate_dataset(case, 40, 0.05, seed=0)
    samples = sample_loads(case, 64, variation=0.05, seed=12345)[27:28]
    Pd, Qd = np.array([s.Pd for s in samples]), np.array([s.Qd for s in samples])
    features = ScenarioSet(
        case.name, [Scenario(0, Pd[0], Qd[0])], n_bus=case.n_bus
    ).feature_matrix(case.base_mva)
    starts = warm_starts_from_predictions(nearest_one(table, features), OPFModel(case))
    counts = _count_tiers(monkeypatch)
    row = _solve_certified(case, Pd, Qd, starts)
    assert row.iterations == 9
    assert counts == {"shifted": 0, "fallback": 1}
