"""Scheduler-invariant harness: the dispatch must never change results.

The scenario scheduler decides *where and with whom* a scenario is solved —
stolen micro-batches, retire-and-refill lockstep windows, cross-sweep
contingency groups — while the per-scenario result semantics must survive
every one of those choices bit for bit.  This suite pins that contract:

* pure scheduling functions cut the sweep exactly once into consecutive
  micro-batches, one group per sweep whatever its outage sets
  (property-based);
* ``mips_batch``'s retire-and-refill feed is bitwise-invariant in the lockstep
  window size, including singular-KKT scenarios enrolled mid-flight whose
  ``kkt_regularizations`` must land on the right scenario (property-based);
* fleet sweeps are exactly-once, invariant under scenario permutation,
  micro-batch size, worker count and sweep membership (a scenario served
  alone equals the same scenario served inside a sweep), and keep additive
  ``solve_seconds`` wall shares bounded by the sweep wall under stealing.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.mips import FactorizedSolver, LDLSolver
from repro.mips.batch import BatchFeedPayload, mips_batch
from repro.mips.options import MIPSOptions
from repro.parallel import (
    Scenario,
    ScenarioSet,
    SolverFleet,
    auto_microbatch_size,
    generate_scenarios,
    make_microbatches,
    run_scenario_sweep,
)
from repro.parallel.scheduler import MicroBatch


# --------------------------------------------------------------- pure policies
def _fake_scenarios(outages):
    nb = 3
    return [
        Scenario(
            i, np.full(nb, 10.0 + i), np.full(nb, 3.0),
            outage_branches=() if o is None else (o,),
        )
        for i, o in enumerate(outages)
    ]


outage_lists = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)), min_size=1, max_size=24
)


@settings(max_examples=60, deadline=None)
@given(outages=outage_lists, data=st.data())
def test_microbatches_contiguous_and_exactly_once(outages, data):
    scenarios = _fake_scenarios(outages)
    microbatch = data.draw(st.integers(min_value=1, max_value=8))
    batches = make_microbatches(scenarios, microbatch=microbatch)
    # Consecutive slices in input order: topology plays no part in the cut.
    assert [pos for mb in batches for pos in mb.positions] == list(range(len(outages)))
    for mb in batches:
        assert isinstance(mb, MicroBatch)
        assert 1 <= len(mb) <= microbatch
    assert all(len(mb) == microbatch for mb in batches[:-1])


def test_n2_sweep_on_two_workers_is_four_tasks():
    """18 scenarios over six outage pairs: tasks of 5, 5, 5, 3, not six of 3."""
    scenarios = [
        Scenario(i, np.full(3, 10.0), np.full(3, 3.0), outage_branches=(i % 6, 6 + i % 6))
        for i in range(18)
    ]
    assert [len(mb) for mb in make_microbatches(scenarios, n_workers=2)] == [5, 5, 5, 3]


def test_auto_microbatch_size_oversubscribes():
    assert auto_microbatch_size(0, 4) == 1
    assert auto_microbatch_size(64, 4) == 8  # 64 / (4 workers * 2 per worker) = 8
    assert auto_microbatch_size(3, 8) == 1
    assert auto_microbatch_size(10, 1) == 5


# --------------------------------------------------- retire-and-refill (QP level)
def _qp_problem(batch, nx, neq, niq, seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))
    return H, c, Aeq, beq, Ain, bin_


def _solve_qp_batch(H, c, Aeq, beq, Ain, bin_, window=None, kkt_solver="factorized", deadline=None):
    """Solve a same-structure QP batch through mips_batch, optionally windowed.

    ``deadline`` holds the initial window's per-row absolute wall deadlines.
    """
    batch, nx = c.shape
    neq, niq = beq.shape[1], bin_.shape[1]

    # Row-wise loops (not batched einsum): the invariance contract only holds
    # for callbacks whose row results are independent of batch composition,
    # which the real batched OPF kernels guarantee and einsum does not.
    def f_fcn(X, idx):
        F = np.array([0.5 * x @ H[j] @ x + c[j] @ x for x, j in zip(X, idx)])
        dF = np.stack([H[j] @ x + c[j] for x, j in zip(X, idx)])
        return F, dF

    def gh_fcn(X, idx):
        G = np.stack([Aeq[j] @ x - beq[j] for x, j in zip(X, idx)])
        Hc = np.stack([Ain[j] @ x - bin_[j] for x, j in zip(X, idx)])
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, cost_mult, idx):
        return (H[idx] * cost_mult).reshape(idx.size, -1)

    kwargs = dict(
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        jg_template=sp.csr_matrix(np.ones((neq, nx))),
        jh_template=sp.csr_matrix(np.ones((niq, nx))),
        hess_template=sp.csr_matrix(np.ones((nx, nx))),
        xmin=np.full(nx, -5.0),
        xmax=np.full(nx, 5.0),
        options=MIPSOptions(kkt_solver=kkt_solver),
    )
    X0 = np.zeros((batch, nx))
    if window is None or window >= batch:
        return mips_batch(f_fcn, X0, **kwargs)

    cursor = window

    def feed(free):
        nonlocal cursor
        if cursor >= batch:
            return None
        stop = min(cursor + free, batch)
        payload = BatchFeedPayload(x0=X0[cursor:stop])
        cursor = stop
        return payload

    return mips_batch(
        f_fcn, X0[:window], feed=feed, feed_capacity=batch, deadline=deadline, **kwargs
    )


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=2, max_value=6),
    nx=st.integers(min_value=2, max_value=5),
    neq=st.integers(min_value=1, max_value=2),
    niq=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    window=st.integers(min_value=1, max_value=6),
    backend=st.sampled_from(["factorized", "ldl"]),
)
def test_feed_window_bitwise_invariant(batch, nx, neq, niq, seed, window, backend):
    """Every lockstep window size yields bitwise the full-batch results."""
    problem = _qp_problem(batch, nx, max(neq, 1), niq, seed)
    full = _solve_qp_batch(*problem, kkt_solver=backend)
    windowed = _solve_qp_batch(*problem, window=min(window, batch), kkt_solver=backend)
    assert len(full) == len(windowed) == batch  # exactly once, in order
    for a, b in zip(full, windowed):
        assert a.converged == b.converged
        assert a.iterations == b.iterations
        assert a.f == b.f
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.z, b.z)
        assert a.kkt_regularizations == b.kkt_regularizations
        assert len(a.history) == len(b.history)


@pytest.mark.parametrize("backend", [FactorizedSolver, LDLSolver])
def test_one_solve_blocks_call_per_lockstep_iteration_under_a_feed(backend, monkeypatch):
    """A row enrolled mid-run joins the next iteration's one ``solve_blocks``
    call together with the seasoned rows: whatever the backend, each lockstep
    iteration hands its whole active set to the solver exactly once."""
    import repro.mips.batch as batch_module

    solved, assembled = [], []

    class Recording(backend):
        def solve_blocks(self, template, data_plane, rhs_plane):
            solved.append(len(rhs_plane))
            return super().solve_blocks(template, data_plane, rhs_plane)

    build = batch_module._BatchKKTAssembler.build

    def counting_build(self, Hdata, *rest):
        assembled.append(len(Hdata))
        return build(self, Hdata, *rest)

    monkeypatch.setattr(batch_module._BatchKKTAssembler, "build", counting_build)
    monkeypatch.setattr(batch_module, "make_kkt_solver", lambda name, **kw: Recording(**kw))
    # Row 0's deadline has already passed: it retires before iteration 1, so
    # its replacement enrolls while row 1 is one iteration in.
    results = _solve_qp_batch(
        *_qp_problem(4, 4, 2, 2, seed=3), window=2, deadline=np.array([0.0, np.inf])
    )
    assert results[0].timed_out and all(r.converged for r in results[1:])
    assert assembled[:2] == [1, 2]  # a fresh row beside a seasoned one
    assert solved == assembled
    assert sum(solved) == sum(r.iterations for r in results)


@settings(max_examples=15, deadline=None)
@given(
    batch=st.integers(min_value=2, max_value=5),
    window=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_feed_wall_shares_additive(batch, window, seed):
    """Wall shares of a windowed solve stay additive: they sum to ≤ the wall."""
    import time

    problem = _qp_problem(batch, 4, 2, 2, seed)
    t0 = time.perf_counter()
    results = _solve_qp_batch(*problem, window=min(window, batch))
    wall = time.perf_counter() - t0
    shares = sum(r.wall_share_seconds for r in results)
    assert all(r.wall_share_seconds >= 0.0 for r in results)
    assert shares <= wall + 1e-6


def _singular_requeue_problem(batch=4, nx=5, neq=2, niq=2, seed=4):
    """QP batch whose *third* slot has consistent rank-deficient equalities.

    With ``window=1`` the singular slot enrolls mid-flight (after slot 0
    retires), exercising regularisation attribution across a requeue.
    """
    H, c, Aeq, beq, Ain, bin_ = _qp_problem(batch, nx, neq, niq, seed)
    sick = 2
    Aeq = Aeq.copy()
    beq = beq.copy()
    Aeq[sick, 1] = Aeq[sick, 0]  # duplicated row: rank-deficient but consistent
    beq[sick, 1] = beq[sick, 0]
    return (H, c, Aeq, beq, Ain, bin_), sick


@pytest.mark.parametrize("backend", ["factorized", "ldl"])
def test_regularizations_attributed_after_requeue(backend):
    problem, sick = _singular_requeue_problem()
    full = _solve_qp_batch(*problem, kkt_solver=backend)
    assert full[sick].kkt_regularizations > 0
    for window in (1, 2, 3):
        windowed = _solve_qp_batch(*problem, window=window, kkt_solver=backend)
        for b, (a, w) in enumerate(zip(full, windowed)):
            # Recoveries land on the singular scenario only, wherever the
            # window happened to place it; neighbours stay bit-unaffected.
            assert w.kkt_regularizations == a.kkt_regularizations
            assert (w.kkt_regularizations > 0) == (b == sick)
            assert np.array_equal(a.x, w.x)
            assert a.iterations == w.iterations


# ------------------------------------------------------------ fleet invariants
@pytest.fixture(scope="module")
def sweep_case9():
    from repro.grid import get_case

    case = get_case("case9")
    scenarios = generate_scenarios(
        case, 8, variation=0.08, contingency_fraction=0.4, seed=5
    )
    assert any(s.outage_branches for s in scenarios)
    return case, scenarios


def _by_id(sweep):
    return {o.scenario_id: o for o in sweep.outcomes}


def _assert_bitwise_equal_outcomes(a, b):
    assert a.scenario_id == b.scenario_id
    assert a.success == b.success
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    if a.success:
        assert a.objective == b.objective


def test_fleet_exactly_once_and_sorted(sweep_case9):
    case, scenarios = sweep_case9
    sweep = run_scenario_sweep(case, scenarios, microbatch=2)
    ids = [o.scenario_id for o in sweep.outcomes]
    assert ids == sorted(ids)
    assert ids == [s.scenario_id for s in scenarios]


def test_fleet_steal_results_invariant_under_microbatch_size(sweep_case9):
    case, scenarios = sweep_case9
    reference = run_scenario_sweep(case, scenarios, microbatch=len(scenarios))
    for microbatch in (1, 2, 3, None):
        sweep = run_scenario_sweep(case, scenarios, microbatch=microbatch)
        for a, b in zip(reference.outcomes, sweep.outcomes):
            _assert_bitwise_equal_outcomes(a, b)


def test_fleet_steal_results_invariant_under_permutation(sweep_case9):
    """Submitting the sweep in any scenario order yields identical results."""
    case, scenarios = sweep_case9
    reference = _by_id(run_scenario_sweep(case, scenarios, microbatch=2))
    rng = np.random.default_rng(0)
    for _ in range(3):
        order = rng.permutation(len(scenarios))
        shuffled = ScenarioSet(case.name, [scenarios[int(i)] for i in order])
        sweep = run_scenario_sweep(case, shuffled, microbatch=2)
        assert sorted(o.scenario_id for o in sweep.outcomes) == sorted(reference)
        for outcome in sweep.outcomes:
            _assert_bitwise_equal_outcomes(reference[outcome.scenario_id], outcome)


def _six_scenario_sweep(case_name):
    """Six scenarios over three topologies (positions 2 and 3 share one)."""
    from repro.grid import get_case
    from repro.parallel import screened_outage_sets

    case = get_case(case_name)
    if case_name == "case9":  # load-only and N-1 members (no N-2 pair keeps case9 connected)
        b0, b1 = screened_outage_sets(case, k=1)[:2]
        outages = [(), (), b0, b0, b1, ()]
    else:  # N-2 members
        p0, p1, p2 = screened_outage_sets(case, k=2, max_sets=3, seed=3)
        outages = [p1, p1, p0, p0, p2, p1]
    loads = generate_scenarios(case, 6, variation=0.08, seed=9)
    members = [
        Scenario(s.scenario_id, s.Pd, s.Qd, outage_branches=out)
        for s, out in zip(loads, outages)
    ]
    return case, ScenarioSet(case.name, members, n_bus=case.n_bus)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("case_name", ["case9", "case14"])
def test_scenario_alone_equals_scenario_in_sweep_bitwise(case_name, n_workers):
    """Default arguments: sweep membership never changes a scenario's result.

    Every task marches in lockstep, singletons included, so a scenario served
    alone, inside a mixed-topology sweep, or next to a neighbour that an
    already-expired row deadline retired walks one numeric path.
    """
    import time

    case, scenarios = _six_scenario_sweep(case_name)
    deadlines = np.full(len(scenarios), np.inf)
    deadlines[2] = time.monotonic() - 1.0
    with SolverFleet(case, n_workers=n_workers, collect_solutions=True) as fleet:
        together = fleet.solve(scenarios)
        gated = fleet.solve(scenarios, deadline=deadlines)
        alone = [
            fleet.solve(ScenarioSet(case.name, [s], n_bus=case.n_bus)).outcomes[0]
            for s in scenarios
        ]
    assert together.success_rate == 1.0
    assert gated.outcomes[2].timed_out
    for pos, single in enumerate(alone):
        for other in (together.outcomes[pos], gated.outcomes[pos]):
            if other.timed_out:
                continue
            _assert_bitwise_equal_outcomes(single, other)
            assert single.objective == other.objective
            for name in ("x", "lam", "mu", "z"):
                assert np.array_equal(getattr(single.solution, name), getattr(other.solution, name))


def test_fleet_steal_wall_shares_bounded_by_sweep_wall(sweep_case9):
    """Additive solve_seconds shares stay bounded by the sweep wall (in-process)."""
    case, scenarios = sweep_case9
    sweep = run_scenario_sweep(case, scenarios, microbatch=2)
    assert all(o.solve_seconds >= 0.0 for o in sweep.outcomes)
    assert sweep.total_solver_seconds() <= sweep.wall_seconds + 1e-6


def test_fleet_solve_many_matches_separate_sweeps(sweep_case9):
    case, scenarios = sweep_case9
    other = generate_scenarios(case, 5, variation=0.06, contingency_fraction=0.4, seed=11)
    with SolverFleet(case, microbatch=2) as fleet:
        separate = [fleet.solve(scenarios), fleet.solve(other)]
        grouped = fleet.solve_many([scenarios, other])
    assert len(grouped) == 2
    for sep, grp in zip(separate, grouped):
        assert grp.n_scenarios == sep.n_scenarios
        for a, b in zip(sep.outcomes, grp.outcomes):
            _assert_bitwise_equal_outcomes(a, b)


def test_fleet_validates_microbatch(sweep_case9):
    case, _ = sweep_case9
    with pytest.raises(ValueError, match="microbatch"):
        SolverFleet(case, microbatch=0)
