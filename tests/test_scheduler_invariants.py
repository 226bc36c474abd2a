"""Scheduler-invariant harness: the dispatch must never change results.

The scenario scheduler decides *where and with whom* a scenario is solved —
stolen micro-batches, bisected fragments of a failing task, cross-sweep
contingency groups — while the per-scenario result semantics must survive
every one of those choices bit for bit.  This suite pins that contract:

* the pooled cut (``repro.parallel.pool._microbatches``) splits a sweep
  exactly once into consecutive micro-batches of positions — outage sets
  play no part in it (property-based);
* a ``mips_batch`` row is bitwise the same alone, in the full batch and in
  any subset or permutation of it, including singular-KKT rows whose
  ``kkt_regularizations`` must land on the right scenario (property-based);
* fleet sweeps are exactly-once, invariant under scenario permutation,
  micro-batch size, worker count and sweep membership (a scenario served
  alone equals the same scenario served inside a sweep), and keep additive
  ``solve_seconds`` wall shares bounded by the sweep wall under stealing.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from reference.kkt import FactorizedSolver, kkt_solve
from repro.mips import LDLSolver, LockstepPlan
from repro.mips.batch import mips_batch
from repro.parallel import Scenario, ScenarioSet, SolverFleet, generate_scenarios
from repro.parallel.pool import _microbatches


# --------------------------------------------------------------- pure policies
@settings(max_examples=60, deadline=None)
@given(n_scenarios=st.integers(min_value=1, max_value=24), n_workers=st.integers(1, 8))
def test_microbatches_contiguous_and_exactly_once(n_scenarios, n_workers):
    size = -(-n_scenarios // n_workers)
    batches = _microbatches(n_scenarios, n_workers)
    # Consecutive slices in input order, at most one per worker.
    assert [pos for mb in batches for pos in mb] == list(range(n_scenarios))
    assert len(batches) <= n_workers
    for mb in batches:
        assert isinstance(mb, range)
        assert 1 <= len(mb) <= size
    assert all(len(mb) == size for mb in batches[:-1])


def test_n2_sweep_on_two_workers_is_two_tasks():
    """18 scenarios (six outage pairs in ``nk118_cold_2w``): tasks of 9 and 9."""
    assert [len(mb) for mb in _microbatches(18, n_workers=2)] == [9, 9]


def test_microbatches_are_one_task_per_worker():
    assert _microbatches(0, 4) == []
    assert [len(mb) for mb in _microbatches(64, 4)] == [16] * 4
    assert [len(mb) for mb in _microbatches(65, 4)] == [17, 17, 17, 14]
    assert [len(mb) for mb in _microbatches(3, 8)] == [1, 1, 1]
    assert [len(mb) for mb in _microbatches(10, 1)] == [10]


# ------------------------------------------------- subset invariance (QP level)
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


def _solve_qp_batch(
    H, c, Aeq, beq, Ain, bin_, rows=None, backend=None, deadline=None, start=None
):
    """Solve problems ``rows`` (all, in order, when omitted) of a same-structure
    QP batch as one ``mips_batch`` call; one result per entry of ``rows``.

    ``backend`` names the KKT solve (:data:`reference.kkt.BACKENDS`); ``None``
    keeps the one ``mips_batch`` builds.  ``deadline`` is passed through.
    ``start`` is a full start: results whose ``x`` / ``lam`` / ``mu`` / ``z``
    are stacked per row (cold from zeros when omitted).
    """
    rows = np.arange(c.shape[0]) if rows is None else np.asarray(rows)
    nx = c.shape[1]
    neq, niq = beq.shape[1], bin_.shape[1]

    # Row-wise loops (not batched einsum): the invariance contract only holds
    # for callbacks whose row results are independent of batch composition,
    # which the real batched OPF kernels guarantee and einsum does not.
    def f_fcn(X, idx):
        F = np.array([0.5 * x @ H[j] @ x + c[j] @ x for x, j in zip(X, rows[idx])])
        dF = np.stack([H[j] @ x + c[j] for x, j in zip(X, rows[idx])])
        return F, dF

    def gh_fcn(X, idx):
        G = np.stack([Aeq[j] @ x - beq[j] for x, j in zip(X, rows[idx])])
        Hc = np.stack([Ain[j] @ x - bin_[j] for x, j in zip(X, rows[idx])])
        return G, Hc, Aeq[rows[idx]].reshape(idx.size, -1), Ain[rows[idx]].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, idx):
        return H[rows[idx]].reshape(idx.size, -1)

    plan = LockstepPlan(
        nx,
        sp.csr_matrix(np.ones((neq, nx))),
        sp.csr_matrix(np.ones((niq, nx))),
        sp.csr_matrix(np.ones((nx, nx))),
        np.full(nx, -5.0),
        np.full(nx, 5.0),
    )
    with nullcontext() if backend is None else kkt_solve(backend):
        if start is None:
            return mips_batch(
                f_fcn, np.zeros((rows.size, nx)), gh_fcn, hess_fcn, plan=plan, deadline=deadline
            )
        x0, lam0, mu0, z0 = (np.stack([getattr(r, n) for r in start]) for n in ("x", "lam", "mu", "z"))
        return mips_batch(
            f_fcn, x0, gh_fcn, hess_fcn, plan=plan, lam0=lam0, mu0=mu0, z0=z0, deadline=deadline
        )


def _assert_same_row(a, b):
    """Bitwise: x, λ, µ, z, iterations, objective and KKT recoveries."""
    assert a.converged == b.converged
    assert a.message == b.message
    assert a.iterations == b.iterations
    assert a.f == b.f
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.z, b.z)
    assert a.kkt_regularizations == b.kkt_regularizations
    assert len(a.history) == len(b.history)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=2, max_value=6),
    nx=st.integers(min_value=2, max_value=5),
    neq=st.integers(min_value=1, max_value=2),
    niq=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
    backend=st.sampled_from(["factorized", "ldl"]),
    data=st.data(),
)
def test_subset_bitwise_invariant(batch, nx, neq, niq, seed, backend, data):
    """Every row is bitwise the same alone, in the full batch, and in a
    random subset of the batch in random order."""
    problem = _qp_problem(batch, nx, max(neq, 1), niq, seed)
    full = _solve_qp_batch(*problem, backend=backend)
    assert len(full) == batch  # exactly once, in order
    order = data.draw(st.permutations(range(batch)))
    subset = order[: data.draw(st.integers(min_value=1, max_value=batch))]
    for j, result in zip(subset, _solve_qp_batch(*problem, rows=subset, backend=backend)):
        _assert_same_row(full[j], result)
    for j in range(batch):
        (alone,) = _solve_qp_batch(*problem, rows=[j], backend=backend)
        _assert_same_row(full[j], alone)


@pytest.mark.parametrize("backend", [FactorizedSolver, LDLSolver])
def test_one_solve_blocks_call_per_lockstep_iteration(backend, monkeypatch):
    """Whatever the backend, each lockstep iteration hands its whole active
    set to the solver exactly once, also after an expired deadline retired a
    row before the first iteration."""
    import repro.mips.batch as batch_module

    solved, assembled = [], []

    class Recording(backend):
        def solve_blocks(self, data_plane, rhs_plane, tol=None):
            solved.append(len(rhs_plane))
            return super().solve_blocks(data_plane, rhs_plane, tol)

    build = batch_module._BatchKKTAssembler.build

    def counting_build(self, Hdata, *rest):
        assembled.append(len(Hdata))
        return build(self, Hdata, *rest)

    monkeypatch.setattr(batch_module._BatchKKTAssembler, "build", counting_build)
    monkeypatch.setattr(batch_module, "LDLSolver", Recording)
    # Row 0's deadline has already passed: it retires before iteration 1.
    results = _solve_qp_batch(
        *_qp_problem(4, 4, 2, 2, seed=3), deadline=np.array([0.0, np.inf, np.inf, np.inf])
    )
    assert results[0].timed_out and results[0].iterations == 0
    assert all(r.converged for r in results[1:])
    assert assembled[0] == 3
    assert solved == assembled
    assert sum(solved) == sum(r.iterations for r in results)


def test_expired_row_started_at_its_solution_returns_converged():
    """The deadline check follows the entry test: a row whose start already
    passes every termination test retires converged, not timed out, and a
    row beside it whose start does not retires timed out at its entry."""
    problem = _qp_problem(3, 4, 2, 2, seed=3)
    solved = _solve_qp_batch(*problem)
    assert all(r.converged for r in solved)
    cold = _solve_qp_batch(*problem, rows=[2], deadline=-np.inf)[0]
    again = _solve_qp_batch(*problem, deadline=np.array([-np.inf, -np.inf, np.inf]), start=solved)
    for first, row in zip(solved, again):
        assert row.converged and not row.timed_out and row.iterations == 0
        assert row.message == "converged" and row.f == first.f
    assert cold.timed_out and not cold.converged and cold.iterations == 0
    assert cold.message == "wall deadline exceeded"


@settings(max_examples=15, deadline=None)
@given(
    batch=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_subset_wall_shares_additive(batch, seed, data):
    """Wall shares of a subset solve stay additive: they sum to ≤ the wall."""
    import time

    problem = _qp_problem(batch, 4, 2, 2, seed)
    order = data.draw(st.permutations(range(batch)))
    subset = order[: data.draw(st.integers(min_value=1, max_value=batch))]
    t0 = time.perf_counter()
    results = _solve_qp_batch(*problem, rows=subset)
    wall = time.perf_counter() - t0
    shares = sum(r.wall_share_seconds for r in results)
    assert all(r.wall_share_seconds >= 0.0 for r in results)
    assert shares <= wall + 1e-6


def _singular_requeue_problem(batch=4, nx=5, neq=2, niq=2, seed=4):
    """QP batch whose *third* slot has consistent rank-deficient equalities."""
    H, c, Aeq, beq, Ain, bin_ = _qp_problem(batch, nx, neq, niq, seed)
    sick = 2
    Aeq = Aeq.copy()
    beq = beq.copy()
    Aeq[sick, 1] = Aeq[sick, 0]  # duplicated row: rank-deficient but consistent
    beq[sick, 1] = beq[sick, 0]
    return (H, c, Aeq, beq, Ain, bin_), sick


@pytest.mark.parametrize("backend", ["factorized", "ldl"])
def test_regularizations_attributed_after_requeue(backend):
    """A task requeued as fragments (bisection) or in another order keeps
    every row's recoveries: they land on the singular row in every subset
    that holds it, and its neighbours stay bit-unaffected."""
    problem, sick = _singular_requeue_problem()
    full = _solve_qp_batch(*problem, backend=backend)
    assert full[sick].kkt_regularizations > 0
    for subset in ([2, 3], [sick], [3, 2, 1, 0], [0, 2], [1, 3]):
        for j, result in zip(subset, _solve_qp_batch(*problem, rows=subset, backend=backend)):
            _assert_same_row(full[j], result)
            assert (result.kkt_regularizations > 0) == (j == sick)


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
    with SolverFleet(case) as fleet:
        sweep = fleet.solve(scenarios)
    ids = [o.scenario_id for o in sweep.outcomes]
    assert ids == sorted(ids)
    assert ids == [s.scenario_id for s in scenarios]


def test_fleet_steal_results_invariant_under_microbatch_size(sweep_case9):
    """Each micro-batch a pooled fleet of 1–8 workers would cut (widths 4, 2
    and 1 of this sweep), solved as its own sweep, equals the whole sweep."""
    case, scenarios = sweep_case9
    with SolverFleet(case) as fleet:
        reference = fleet.solve(scenarios)
        for n_workers in (1, 2, 3, 4, 8):
            cut = [
                outcome
                for positions in _microbatches(len(scenarios), n_workers)
                for outcome in fleet.solve(
                    ScenarioSet(case.name, [scenarios[p] for p in positions])
                ).outcomes
            ]
            for a, b in zip(reference.outcomes, cut, strict=True):
                _assert_bitwise_equal_outcomes(a, b)


def test_fleet_steal_results_invariant_under_permutation(sweep_case9):
    """Submitting the sweep in any scenario order yields identical results."""
    case, scenarios = sweep_case9
    rng = np.random.default_rng(0)
    with SolverFleet(case) as fleet:
        reference = _by_id(fleet.solve(scenarios))
        shuffled_sweeps = [
            fleet.solve(ScenarioSet(case.name, [scenarios[int(i)] for i in order]))
            for order in (rng.permutation(len(scenarios)) for _ in range(3))
        ]
    for sweep in shuffled_sweeps:
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
    with SolverFleet(case, n_workers=n_workers) as fleet:
        together = fleet.solve(scenarios, solutions=True)
        gated = fleet.solve(scenarios, deadline=deadlines, solutions=True)
        alone = [
            fleet.solve(ScenarioSet(case.name, [s], n_bus=case.n_bus), solutions=True).outcomes[0]
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
    with SolverFleet(case) as fleet:
        sweep = fleet.solve(scenarios)
    assert all(o.solve_seconds >= 0.0 for o in sweep.outcomes)
    assert sweep.total_solver_seconds() <= sweep.wall_seconds + 1e-6


def test_fleet_concatenated_sweep_matches_separate_sweeps(sweep_case9):
    """Two sweeps concatenated into one set (ids renumbered onto positions)
    give every scenario the outcome it gets in its own sweep."""
    case, scenarios = sweep_case9
    other = generate_scenarios(case, 5, variation=0.06, contingency_fraction=0.4, seed=11)
    members = [*scenarios, *other]
    merged = ScenarioSet(case.name, [replace(s, scenario_id=p) for p, s in enumerate(members)])
    with SolverFleet(case) as fleet:
        separate = [*fleet.solve(scenarios).outcomes, *fleet.solve(other).outcomes]
        grouped = fleet.solve(merged).outcomes
    assert len(grouped) == len(separate)
    for a, b, s in zip(separate, grouped, members, strict=True):
        _assert_bitwise_equal_outcomes(a, replace(b, scenario_id=s.scenario_id))
