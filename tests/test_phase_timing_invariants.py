"""Property-style invariants of the solver's phase-timing accounting.

The Fig. 5 runtime breakdown consumes the eval / assembly / factorization /
backsolve phase splits recorded in :class:`~repro.mips.result.MIPSResult` and
threaded through :class:`~repro.engine.records.OnlineRecord`.  These tests pin
the accounting contract so it survives solver rearchitectures:

* every phase value is finite and non-negative,
* the phases are measured sub-intervals, so their sum never exceeds the
  solve's wall time,
* the per-scenario ``wall_share_seconds`` decomposition of a lockstep batch is
  additive — shares sum to (at most) the batch wall — while each scenario's
  ``elapsed_seconds`` remains its wall-clock-until-retirement,
* the invariants hold identically for the scalar solver and for the lockstep
  batch on both KKT backends.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.engine.fallback import get_fallback_policy
from repro.grid import get_case
from repro.mips import MIPSOptions, mips_batch, qps_mips
from repro.opf import OPFModel, WarmStart, solve_opf
from repro.parallel import generate_scenarios, run_scenario_sweep

PHASES = ("eval", "assembly", "factorization", "backsolve")
#: Wall-clock comparisons tolerate float accumulation noise, nothing more.
EPS = 1e-9


def _assert_mips_result_invariants(result):
    assert set(result.phase_seconds) == set(PHASES)
    for value in result.phase_seconds.values():
        assert np.isfinite(value) and value >= 0.0
    assert sum(result.phase_seconds.values()) <= result.elapsed_seconds + EPS
    assert 0.0 <= result.wall_share_seconds <= result.elapsed_seconds + EPS
    for record in result.history:
        for field in ("eval_seconds", "assembly_seconds", "factor_seconds", "backsolve_seconds"):
            value = getattr(record, field)
            assert np.isfinite(value) and value >= 0.0


# ------------------------------------------------------------------ scalar path
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), nx=st.integers(min_value=2, max_value=7))
def test_scalar_qp_phase_invariants(seed, nx):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(nx, nx))
    H = M @ M.T + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=nx)
    result = qps_mips(
        H,
        c,
        A_eq=np.ones((1, nx)),
        b_eq=[1.0],
        xmin=np.full(nx, -4.0),
        xmax=np.full(nx, 4.0),
    )
    assert result.converged
    _assert_mips_result_invariants(result)


def test_scalar_opf_phase_invariants(case9_fixture, opf_model9):
    result = solve_opf(case9_fixture, model=opf_model9)
    assert result.success
    for value in result.phase_seconds.values():
        assert np.isfinite(value) and value >= 0.0
    assert sum(result.phase_seconds.values()) <= result.solve_seconds + EPS
    assert result.total_seconds >= result.solve_seconds


# ------------------------------------------------------------------- batch path
def _qp_batch_callbacks(batch, nx, neq, niq, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))

    def f_fcn(X, idx):
        Ha = H[idx]
        F = 0.5 * np.einsum("bi,bij,bj->b", X, Ha, X) + np.einsum("bi,bi->b", c[idx], X)
        return F, np.einsum("bij,bj->bi", Ha, X) + c[idx]

    def gh_fcn(X, idx):
        return (
            np.einsum("bij,bj->bi", Aeq[idx], X) - beq[idx],
            np.einsum("bij,bj->bi", Ain[idx], X) - bin_[idx],
            Aeq[idx].reshape(idx.size, -1),
            Ain[idx].reshape(idx.size, -1),
        )

    def hess_fcn(X, lam_nl, mu_nl, cost_mult, idx):
        return (H[idx] * cost_mult).reshape(idx.size, -1)

    kwargs = dict(
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        jg_template=sp.csr_matrix(np.ones((neq, nx))),
        jh_template=sp.csr_matrix(np.ones((niq, nx))),
        hess_template=sp.csr_matrix(np.ones((nx, nx))),
    )
    return f_fcn, np.zeros((batch, nx)), kwargs


@pytest.mark.parametrize("backend", ["factorized", "ldl"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), batch=st.integers(min_value=1, max_value=6))
def test_batch_qp_phase_invariants(backend, seed, batch):
    f_fcn, x0, kwargs = _qp_batch_callbacks(batch, nx=5, neq=2, niq=2, seed=seed)
    results = mips_batch(f_fcn, x0, options=MIPSOptions(kkt_solver=backend), **kwargs)
    assert len(results) == batch
    for result in results:
        _assert_mips_result_invariants(result)
    # The share decomposition is additive: shares sum to (at most) the batch
    # wall, which equals the last retiree's elapsed wall.
    batch_wall = max(r.elapsed_seconds for r in results)
    assert sum(r.wall_share_seconds for r in results) <= batch_wall * (1.0 + 1e-6) + EPS


@pytest.mark.parametrize("backend", ["factorized", "ldl"])
def test_opf_batch_phase_invariants_survive_block_solve(backend):
    from repro.grid.perturb import sample_loads
    from repro.opf import OPFOptions, solve_opf_batch

    case = get_case("case14")
    model = OPFModel(case)
    samples = sample_loads(case, 5, variation=0.06, seed=3)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    results = solve_opf_batch(
        case, Pd, Qd, options=OPFOptions(mips=MIPSOptions(kkt_solver=backend)), model=model
    )
    assert all(r.success for r in results)
    for result in results:
        assert set(result.phase_seconds) == set(PHASES)
        for value in result.phase_seconds.values():
            assert np.isfinite(value) and value >= 0.0
        # solve_seconds carries the additive share; phases are bounded by the
        # scenario's wall-until-retirement, which bounds the batch wall below.
        assert result.solve_seconds >= 0.0
        for record in result.history:
            assert record.eval_seconds >= 0.0
            assert record.assembly_seconds >= 0.0
            assert record.factor_seconds >= 0.0
            assert record.backsolve_seconds >= 0.0


# --------------------------------------------------------------- sweep / engine
def test_sweep_outcome_timing_invariants(case9_fixture):
    scenarios = generate_scenarios(case9_fixture, 6, variation=0.05, seed=9)
    sweep = run_scenario_sweep(
        case9_fixture, scenarios, fallback=get_fallback_policy("cold_restart")
    )
    assert sweep.wall_seconds > 0.0
    total_share = 0.0
    for outcome in sweep.outcomes:
        assert outcome.solve_seconds >= 0.0
        assert outcome.fallback_seconds >= 0.0
        for value in outcome.phase_seconds.values():
            assert np.isfinite(value) and value >= 0.0
        # One scenario's phases are sub-intervals of the sweep's wall.
        assert sum(outcome.phase_seconds.values()) <= sweep.wall_seconds + EPS
        total_share += outcome.solve_seconds
    # The additive share semantics: per-scenario solve costs sum to (at
    # most) the sweep wall, instead of overlapping lockstep wall times.
    assert total_share <= sweep.wall_seconds * (1.0 + 1e-6) + EPS


def test_online_record_phase_invariants(trained_trainer9, case9_fixture, dataset9):
    from repro.engine.engine import WarmStartEngine

    with WarmStartEngine.from_trainer(trained_trainer9) as engine:
        evaluation = engine.evaluate(dataset9, max_problems=6)
        assert evaluation.n_problems == 6
        for record in evaluation.records:
            for value in record.solver_phase_seconds.values():
                assert np.isfinite(value) and value >= 0.0
            assert record.inference_seconds >= 0.0
            assert record.warm_solve_seconds >= 0.0
            assert record.fallback_solve_seconds >= 0.0
            assert record.online_seconds >= record.warm_solve_seconds


def test_batch_failed_scenario_keeps_phase_timings():
    """A scenario that fails mid-batch still reports its phases and share."""
    case = get_case("case9")
    model = OPFModel(case)
    nominal = solve_opf(case, model=model)
    good = nominal.warm_start()
    poisoned = WarmStart(x=good.x * 200.0, lam=good.lam, mu=good.mu, z=good.z)
    scenarios = generate_scenarios(case, 3, variation=0.04, seed=2)
    sweep = run_scenario_sweep(case, scenarios, warm_starts=[good, poisoned, good])
    failed = sweep.outcomes[1]
    assert not failed.success
    assert failed.solve_seconds >= 0.0
    for value in failed.phase_seconds.values():
        assert np.isfinite(value) and value >= 0.0
