"""Mixed-topology lockstep: N-k outages as per-row data of one batch.

Every scenario of a case is solved on the intact network's element kernels,
an outage being a zero coefficient of its row, so scenarios of different
topologies march in one lockstep batch.  This suite pins what that must not
change:

* a row solved alone is bit-for-bit the same row solved inside a mixed N-2
  batch — ``x``, ``λ``, ``µ``, ``z``, iterations and regularisations;
* its objective matches the one-row solve of the *structurally* outaged
  case, the outaged rated branches' flow rows come back as slack rows
  (``µ ≈ 0``, ``z = Smax²``), and both pass the KKT certificate — which has
  to accept those slack rows as complementary;
* retire-and-refill windows leave mixed batches bitwise unchanged;
* a row that takes a rated branch out ignores warm-start ``µ``/``Z``;
* a recovered outage row keeps the intact layout of its lockstep
  neighbours, and every recovery — the failed warm rows of a task, re-solved
  cold in one lockstep call — is bitwise the row's one-row cold solve; cold
  rows are never re-solved.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.opf.batch as opf_batch
import repro.parallel.pool as pool
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import MIPSOptions
from repro.opf import OPFModel, WarmStart, certify_opf, solve_opf, solve_opf_batch
from repro.parallel import (
    Scenario,
    SolverFleet,
    outage_keeps_connected,
    screened_outage_sets,
)

#: Connectivity-preserving N-2 pairs of case118s whose AC-OPF is solvable.
PAIRS_118 = ((4, 27), (7, 32), (10, 36))


@pytest.fixture
def mips_results(monkeypatch):
    """Record the raw ``MIPSResult`` behind every ``OPFResult`` built."""
    recorded = []
    build = opf_batch.build_opf_result

    def recording(case, model, result, *rest):
        recorded.append(result)
        return build(case, model, result, *rest)

    monkeypatch.setattr(opf_batch, "build_opf_result", recording)
    return recorded


def _loads(case, n, seed):
    samples = sample_loads(case, n, variation=0.05, seed=seed)
    return np.stack([s.Pd for s in samples]), np.stack([s.Qd for s in samples])


def _assert_same_row(a, b):
    assert a.iterations == b.iterations
    assert a.kkt_regularizations == b.kkt_regularizations
    for name in ("x", "lam", "mu", "z"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_row_alone_equals_row_in_mixed_n2_batch_bitwise(mips_results):
    case = get_case("case118s")
    assert all(outage_keeps_connected(case, pair) for pair in PAIRS_118)
    model = OPFModel(case)
    outages = [(), *PAIRS_118]
    Pd, Qd = _loads(case, len(outages), seed=3)

    mixed = solve_opf_batch(case, Pd, Qd, model=model, outages=outages)
    in_batch = list(mips_results)
    assert all(r.success for r in mixed)

    lim = model.limited_branches
    limit_sq = np.tile(model.flow_limit_sq, 2)
    for i, branches in enumerate(outages):
        mips_results.clear()
        (alone,) = solve_opf_batch(
            case, Pd[i : i + 1], Qd[i : i + 1], model=model, outages=[branches]
        )
        _assert_same_row(mips_results[0], in_batch[i])
        assert alone.objective == mixed[i].objective

        scenario = Scenario(i, Pd[i], Qd[i], outage_branches=branches)
        reference = solve_opf(scenario.apply(case), Pd_mw=Pd[i], Qd_mvar=Qd[i])
        assert reference.success
        assert abs(mixed[i].objective - reference.objective) <= 1e-6 * abs(reference.objective)
        assert certify_opf(case, mixed[i], Pd[i], Qd[i], outages=branches).holds()
        assert certify_opf(case, reference, Pd[i], Qd[i], outages=branches).holds()

        # Outage rows keep the intact sizes; outaged rated branches are slack rows.
        assert mixed[i].mu.shape == mixed[0].mu.shape
        slack = np.flatnonzero(np.isin(np.tile(lim, 2), branches))
        assert slack.size == 2 * len(branches)
        assert np.all(mixed[i].mu[slack] < 1e-6)
        np.testing.assert_allclose(mixed[i].z[slack], limit_sq[slack], rtol=1e-9)


@pytest.mark.parametrize("case_name", ["case9", "case14"])
def test_mixed_batch_window_invariant_bitwise(case_name, mips_results):
    case = get_case(case_name)
    k = 1 if case_name == "case9" else 2  # every N-2 pair islands a case9 bus
    sets = screened_outage_sets(case, k=k, max_sets=3, seed=4)
    outages = [(), sets[0], sets[1], (), sets[2], sets[0]]
    Pd, Qd = _loads(case, len(outages), seed=8)
    model = OPFModel(case)

    rows = solve_opf_batch(case, Pd, Qd, model=model, outages=outages)
    full = list(mips_results)
    for i, (row, branches) in enumerate(zip(rows, outages)):
        assert certify_opf(case, row, Pd[i], Qd[i], outages=branches).holds()
    for window in (1, 2, 4):
        mips_results.clear()
        solve_opf_batch(case, Pd, Qd, model=model, outages=outages, window=window)
        assert len(mips_results) == len(full)
        for a, b in zip(full, mips_results):
            assert a.converged and b.converged
            _assert_same_row(a, b)


def test_rated_outage_rows_ignore_warm_mu_z(mips_results):
    case = get_case("case9")  # every branch is rated
    model = OPFModel(case)
    (rated,) = screened_outage_sets(case, k=1, max_sets=1, seed=0)[0]
    assert rated in model.limited_branches
    warm = solve_opf(case, model=model).warm_start()
    mips_results.clear()  # solve_opf is a one-row solve_opf_batch: drop its record
    masked = warm.masked(use_mu=False, use_z=False)
    Pd, Qd = _loads(case, 2, seed=5)

    solve_opf_batch(case, Pd, Qd, [warm, warm], model=model, outages=[(), (rated,)])
    solve_opf_batch(case, Pd, Qd, [masked, masked], model=model, outages=[(), (rated,)])
    with_warm, without = mips_results[:2], mips_results[2:]
    # The outaged row drops µ/Z either way; the intact row keeps them.
    _assert_same_row(with_warm[1], without[1])
    assert with_warm[0].iterations < without[0].iterations


def test_outages_validated(mips_results):
    case = get_case("case9")
    Pd, Qd = _loads(case, 2, seed=1)
    with pytest.raises(ValueError, match="one entry per scenario"):
        solve_opf_batch(case, Pd, Qd, outages=[()])
    with pytest.raises(ValueError, match="out of range"):
        solve_opf_batch(case, Pd, Qd, outages=[(), (case.n_branch,)])


def _poisoned(warm):
    """A wildly infeasible primal point: the warm solve fails, without timing out."""
    return WarmStart(x=warm.x * 200.0, lam=warm.lam, mu=warm.mu, z=warm.z)


def _assert_solution_is(solution, result):
    for name in ("x", "lam", "mu", "z"):
        np.testing.assert_array_equal(getattr(solution, name), getattr(result, name))


def test_fallback_recovered_outage_row_keeps_intact_layout():
    """A recovered N-2 row is solved like its lockstep row — on the intact
    model with the outage as per-row data — so its µ/z have the intact size
    of the lockstep rows, its outaged rated branches are slack rows, and the
    certificate accepts it.  Poisoned warm starts fail every first attempt."""
    case = get_case("case118s")
    model = OPFModel(case)
    pair = PAIRS_118[0]
    assert np.isin(pair, model.limited_branches).any()
    Pd, Qd = _loads(case, 2, seed=11)
    outages = [(), pair]
    lockstep = solve_opf_batch(case, Pd, Qd, model=model, outages=outages)
    scenarios = [Scenario(i, Pd[i], Qd[i], outage_branches=b) for i, b in enumerate(outages)]
    with SolverFleet(case, model=model) as fleet:
        sweep = fleet.solve(
            scenarios, [_poisoned(row.warm_start()) for row in lockstep], solutions=True
        )
    for outcome, row in zip(sweep.outcomes, lockstep):
        assert not outcome.success and outcome.used_fallback and outcome.fallback_success
        solution = outcome.solution
        assert solution.mu.shape == solution.z.shape == row.mu.shape == lockstep[0].mu.shape
        # The recovery is the row's own cold lockstep solve.
        assert outcome.iterations_fallback == row.iterations
        assert outcome.objective_fallback == row.objective
        _assert_solution_is(solution, row)

    solution = sweep.outcomes[1].solution
    certificate = certify_opf(case, solution, Pd[1], Qd[1], outages=pair)
    assert certificate.holds(), certificate
    slack = np.flatnonzero(np.isin(np.tile(model.limited_branches, 2), pair))
    np.testing.assert_allclose(solution.z[slack], np.tile(model.flow_limit_sq, 2)[slack], rtol=1e-9)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_recovery_is_the_rows_one_row_cold_solve_bitwise(n_workers, monkeypatch):
    """Every failed warm row of a task is re-solved cold in one lockstep call.

    Rows 1 (an N-2 outage) and 4 (intact) carry poisoned warm starts and
    fail; the others are warm-started from their own converged solution.
    Each recovered row is bitwise a one-row cold ``solve_opf_batch`` of that
    row and passes the certificate; each healthy row is bitwise its one-row
    warm solve and is not re-solved.  In process, the sweep is one task: its
    lockstep solve, then one cold lockstep call of both failed rows.
    """
    case = get_case("case118s")
    model = OPFModel(case)
    outages = [(), PAIRS_118[0], (), PAIRS_118[1], ()]
    poisoned = (1, 4)
    Pd, Qd = _loads(case, len(outages), seed=11)
    warms = [row.warm_start() for row in solve_opf_batch(case, Pd, Qd, model=model, outages=outages)]
    for i in poisoned:
        warms[i] = _poisoned(warms[i])
    scenarios = [Scenario(i, Pd[i], Qd[i], outage_branches=b) for i, b in enumerate(outages)]
    calls = []
    lockstep = pool.solve_opf_batch

    def counting(case, Pd_mw, Qd_mvar, warm_starts=None, **kwargs):
        calls.append([w is not None for w in warm_starts or [None] * len(Pd_mw)])
        return lockstep(case, Pd_mw, Qd_mvar, warm_starts=warm_starts, **kwargs)

    monkeypatch.setattr(pool, "solve_opf_batch", counting)
    with SolverFleet(case, n_workers=n_workers, model=model) as fleet:
        sweep = fleet.solve(scenarios, warms, solutions=True)
    if n_workers == 1:
        assert calls == [[True] * len(outages), [False] * len(poisoned)]
    for i, outcome in enumerate(sweep.outcomes):
        warm = None if i in poisoned else warms[i]
        (reference,) = solve_opf_batch(
            case, Pd[i : i + 1], Qd[i : i + 1], warm_starts=[warm], model=model, outages=[outages[i]]
        )
        assert reference.success
        _assert_solution_is(outcome.solution, reference)
        if i in poisoned:
            assert not outcome.success and not outcome.timed_out
            assert outcome.used_fallback and outcome.fallback_success
            assert outcome.iterations_fallback == reference.iterations
            assert outcome.objective_fallback.hex() == reference.objective.hex()
            certificate = certify_opf(case, outcome.solution, Pd[i], Qd[i], outages=outages[i])
            assert certificate.holds(), certificate
        else:
            assert outcome.success and not outcome.used_fallback
            assert outcome.iterations == reference.iterations
            assert outcome.objective.hex() == reference.objective.hex()
            assert outcome.iterations_fallback == 0 and outcome.fallback_seconds == 0.0


@pytest.mark.parametrize("n_workers", [1, 2])
def test_starved_cold_row_is_not_resolved(n_workers):
    """Only warm rows are recovered.  Under an iteration budget no row can
    meet, the cold row's final answer is bitwise its first attempt, while
    the poisoned warm N-2 row beside it is re-solved cold under the same
    options — and fails the same way."""
    case = get_case("case118s")
    model = OPFModel(case)
    outages = [(), PAIRS_118[0]]
    Pd, Qd = _loads(case, 2, seed=11)
    starved = MIPSOptions(max_it=3)
    cold = solve_opf_batch(case, Pd, Qd, options=starved, model=model, outages=outages)
    warm = _poisoned(solve_opf_batch(case, Pd, Qd, model=model, outages=outages)[1].warm_start())
    scenarios = [Scenario(i, Pd[i], Qd[i], outage_branches=b) for i, b in enumerate(outages)]
    with SolverFleet(case, options=starved, n_workers=n_workers, model=model) as fleet:
        sweep = fleet.solve(scenarios, [None, warm], solutions=True)
    cold_row, warm_row = sweep.outcomes
    assert not cold_row.success and not cold_row.timed_out and not cold_row.used_fallback
    assert cold_row.iterations_fallback == 0 and cold_row.fallback_seconds == 0.0
    assert cold_row.final_iterations == cold_row.iterations == cold[0].iterations == 3
    assert cold_row.final_objective.hex() == cold[0].objective.hex()
    _assert_solution_is(cold_row.solution, cold[0])

    assert not warm_row.success and warm_row.used_fallback and not warm_row.fallback_success
    assert warm_row.iterations_fallback == cold[1].iterations == 3
    assert warm_row.objective_fallback.hex() == cold[1].objective.hex()
    _assert_solution_is(warm_row.solution, cold[1])
