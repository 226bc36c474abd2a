"""Mixed-topology lockstep: N-k outages as per-row data of one batch.

Every scenario of a case is solved on the intact network's element kernels,
an outage being a zero coefficient of its row, so scenarios of different
topologies march in one lockstep batch.  This suite pins what that must not
change:

* a row solved alone is bit-for-bit the same row solved inside a mixed N-2
  batch — ``x``, ``λ``, ``µ``, ``z``, iterations and regularisations;
* its objective matches the scalar ``solve_opf`` of the *structurally*
  outaged case, and the outaged rated branches' flow rows come back as slack
  rows (``µ ≈ 0``, ``z = Smax²``);
* retire-and-refill windows leave mixed batches bitwise unchanged;
* a row that takes a rated branch out ignores warm-start ``µ``/``Z``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.opf.batch as opf_batch
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.opf import BatchedOPFModel, OPFModel, solve_opf, solve_opf_batch
from repro.parallel import Scenario, outage_keeps_connected, screened_outage_sets

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
    batched = BatchedOPFModel(model)
    outages = [(), *PAIRS_118]
    Pd, Qd = _loads(case, len(outages), seed=3)

    mixed = solve_opf_batch(case, Pd, Qd, model=model, batched=batched, outages=outages)
    in_batch = list(mips_results)
    assert all(r.success for r in mixed)

    lim = model.limited_branches
    limit_sq = np.tile(model.flow_limit_sq, 2)
    for i, branches in enumerate(outages):
        mips_results.clear()
        (alone,) = solve_opf_batch(
            case, Pd[i : i + 1], Qd[i : i + 1], model=model, batched=batched, outages=[branches]
        )
        _assert_same_row(mips_results[0], in_batch[i])
        assert alone.objective == mixed[i].objective

        scenario = Scenario(i, Pd[i], Qd[i], outage_branches=branches)
        reference = solve_opf(scenario.apply(case), Pd_mw=Pd[i], Qd_mvar=Qd[i])
        assert reference.success
        assert abs(mixed[i].objective - reference.objective) <= 1e-6 * abs(reference.objective)

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
    batched = BatchedOPFModel(model)

    solve_opf_batch(case, Pd, Qd, model=model, batched=batched, outages=outages)
    full = list(mips_results)
    for window in (1, 2, 4):
        mips_results.clear()
        solve_opf_batch(case, Pd, Qd, model=model, batched=batched, outages=outages, window=window)
        assert len(mips_results) == len(full)
        for a, b in zip(full, mips_results):
            assert a.converged and b.converged
            _assert_same_row(a, b)


def test_rated_outage_rows_ignore_warm_mu_z(mips_results):
    case = get_case("case9")  # every branch is rated
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    (rated,) = screened_outage_sets(case, k=1, max_sets=1, seed=0)[0]
    assert rated in model.limited_branches
    warm = solve_opf(case, model=model).warm_start()
    masked = warm.masked(use_mu=False, use_z=False)
    Pd, Qd = _loads(case, 2, seed=5)

    solve_opf_batch(case, Pd, Qd, [warm, warm], model=model, batched=batched, outages=[(), (rated,)])
    solve_opf_batch(case, Pd, Qd, [masked, masked], model=model, batched=batched, outages=[(), (rated,)])
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
