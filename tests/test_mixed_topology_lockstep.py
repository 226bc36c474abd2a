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
* a fallback-recovered outage row keeps the intact layout of its lockstep
  neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

import repro.opf.batch as opf_batch
from repro.engine.fallback import FallbackPolicy
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import MIPSOptions
from repro.opf import OPFModel, OPFOptions, certify_opf, solve_opf, solve_opf_batch
from repro.parallel import (
    Scenario,
    outage_keeps_connected,
    run_scenario_sweep,
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


@dataclass(frozen=True)
class _RestartWithDefaults(FallbackPolicy):
    """Cold restart under the default solver options, whatever the sweep's."""

    name: ClassVar[str] = "restart_with_defaults"

    def recover(self, solve, warm, failed, options):
        return solve(None, OPFOptions())


def test_fallback_recovered_outage_row_keeps_intact_layout():
    """A recovered N-2 row is solved like its lockstep row — on the intact
    model with the outage as per-row data — so its µ/z have the intact size
    of the lockstep rows, its outaged rated branches are slack rows, and the
    certificate accepts it.  ``max_it=1`` fails every first attempt; the
    recovery runs under the default options."""
    case = get_case("case118s")
    model = OPFModel(case)
    pair = PAIRS_118[0]
    assert np.isin(pair, model.limited_branches).any()
    Pd, Qd = _loads(case, 2, seed=11)
    outages = [(), pair]
    lockstep = solve_opf_batch(case, Pd, Qd, model=model, outages=outages)
    scenarios = [Scenario(i, Pd[i], Qd[i], outage_branches=b) for i, b in enumerate(outages)]
    sweep = run_scenario_sweep(
        case,
        scenarios,
        options=OPFOptions(mips=MIPSOptions(max_it=1)),
        fallback=_RestartWithDefaults(),
        collect_solutions=True,
        model=model,
    )
    for outcome, row in zip(sweep.outcomes, lockstep):
        assert not outcome.success and outcome.used_fallback and outcome.fallback_success
        solution = outcome.solution
        assert solution.mu.shape == solution.z.shape == row.mu.shape == lockstep[0].mu.shape
        # The recovery is the row's own lockstep solve under the default options.
        assert outcome.objective_fallback == row.objective
        for name in ("x", "lam", "mu", "z"):
            np.testing.assert_array_equal(getattr(solution, name), getattr(row, name))

    solution = sweep.outcomes[1].solution
    certificate = certify_opf(case, solution, Pd[1], Qd[1], outages=pair)
    assert certificate.holds(), certificate
    slack = np.flatnonzero(np.isin(np.tile(model.limited_branches, 2), pair))
    np.testing.assert_allclose(solution.z[slack], np.tile(model.flow_limit_sq, 2)[slack], rtol=1e-9)
