"""The infeasibility verdict on random screened case118s N-2 pairs.

A row retires ``infeasible`` once it is still infeasible (``feascond`` above
``FEASTOL``) and its largest multiplier, ``max(|λ|, µ)``, exceeds
``_INFEASIBLE_DUALS`` times its entry scale ``γ₀`` (``repro.mips.batch``).
The sample is 192 pairs drawn from ``screened_outage_sets(case118s, k=2)``
with ``np.random.default_rng(3)``, loads ``sample_loads(case, 192, 0.05,
seed=7)``, solved cold at width 3.  Without the verdict its 12 hopeless rows
ran 25–150 iterations to a singular KKT system or the iteration cap, 1 422 of
the sweep's 3 938 iterations; with it they retire within 9 and the sweep
takes 2 561.  Re-solved alone with ``max_it=500`` without the verdict, none
of them converges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.opf import OPFModel
from repro.opf.batch import solve_opf_batch
from repro.parallel import Scenario, SolverFleet
from repro.parallel.scenarios import screened_outage_sets

#: Rows of the sample that cannot converge.
HOPELESS = (28, 31, 85, 101, 102, 105, 109, 110, 111, 112, 134, 139)
WIDTH = 3


@pytest.fixture(scope="module")
def sample():
    case = get_case("case118s")
    model = OPFModel(case)
    sets = screened_outage_sets(case, k=2)
    picks = np.sort(np.random.default_rng(3).choice(len(sets), 192, replace=False))
    outages = [tuple(sets[i]) for i in picks]
    loads = sample_loads(case, 192, 0.05, seed=7)
    Pd = np.stack([s.Pd for s in loads])
    Qd = np.stack([s.Qd for s in loads])
    rows = [
        result
        for start in range(0, 192, WIDTH)
        for result in solve_opf_batch(
            case,
            Pd[start : start + WIDTH],
            Qd[start : start + WIDTH],
            model=model,
            outages=outages[start : start + WIDTH],
        )
    ]
    return case, model, outages, Pd, Qd, rows


def _solve(sample, rows, warm_starts=None):
    case, model, outages, Pd, Qd, _ = sample
    rows = list(rows)
    return solve_opf_batch(
        case, Pd[rows], Qd[rows], warm_starts=warm_starts, model=model,
        outages=[outages[i] for i in rows],
    )


def _assert_same(a, b):
    assert (a.success, a.infeasible, a.message, a.iterations) == (
        b.success, b.infeasible, b.message, b.iterations,
    )
    assert a.objective.hex() == b.objective.hex()
    for name in ("x", "lam", "mu", "z"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_hopeless_rows_retire_infeasible_early(sample):
    rows = sample[-1]
    failed = tuple(i for i, r in enumerate(rows) if not r.success)
    assert failed == HOPELESS
    for i in HOPELESS:
        assert (rows[i].message, rows[i].infeasible) == ("infeasible", True), i
        assert 1 <= rows[i].iterations <= 15, i
        assert not rows[i].timed_out
    assert not any(r.infeasible for r in rows if r.success)
    assert max(r.iterations for r in rows if r.success) <= 18
    assert sum(r.iterations for r in rows) <= 2800


def test_hopeless_rows_retire_alike_alone_and_in_mixed_batches(sample):
    """A verdict reads only its own row: each hopeless row retires on the
    same bits alone, in its width-3 batch, and in one reversed batch with
    every other hopeless row and converging rows between them."""
    rows = sample[-1]
    for i in HOPELESS:
        (alone,) = _solve(sample, [i])
        _assert_same(alone, rows[i])
    converging = [0, 29, 86, 103, 113, 140]
    mixed = sorted(HOPELESS + tuple(converging), reverse=True)
    for i, got in zip(mixed, _solve(sample, mixed)):
        _assert_same(got, rows[i])


def test_converging_neighbours_of_hopeless_rows_are_their_solo_rows(sample):
    """Every converging row that shares a width-3 batch with a hopeless row
    reaches the bits it reaches alone: the early retirement of its
    neighbour does not perturb it."""
    rows = sample[-1]
    batches = {i // WIDTH for i in HOPELESS}
    neighbours = [
        i for b in sorted(batches) for i in range(b * WIDTH, (b + 1) * WIDTH) if i not in HOPELESS
    ]
    assert len(neighbours) >= 10
    for i in neighbours:
        (alone,) = _solve(sample, [i])
        assert alone.success
        _assert_same(alone, rows[i])


def test_warm_row_judged_infeasible_takes_its_cold_restart(sample):
    """A hopeless row warm-started from the intact solution at its loads is
    judged infeasible, and the fleet still re-solves it cold: the restart is
    bitwise the row's cold solve, and is judged infeasible too."""
    case, model, outages, Pd, Qd, rows = sample
    hopeless = [28, 105]
    intact = solve_opf_batch(case, Pd[hopeless], Qd[hopeless], model=model)
    warms = [r.warm_start() for r in intact]
    warm_rows = _solve(sample, hopeless, warms)
    assert all(r.infeasible and not r.success for r in warm_rows)
    scenarios = [Scenario(i, Pd[i], Qd[i], outage_branches=outages[i]) for i in hopeless]
    with SolverFleet(case, model=model) as fleet:
        sweep = fleet.solve(scenarios, warms)
    for i, warm, outcome in zip(hopeless, warm_rows, sweep.outcomes):
        assert outcome.scenario_id == i
        assert not outcome.success and outcome.iterations == warm.iterations
        assert outcome.used_fallback and not outcome.fallback_success
        assert outcome.iterations_fallback == rows[i].iterations
        assert outcome.objective_fallback.hex() == rows[i].objective.hex()
        assert outcome.infeasible and not outcome.timed_out and not outcome.converged


def test_skewed_pooled_sweep_returns_every_row(sample):
    """Two workers, 18 N-2 rows of which one is hopeless: one outcome per
    row, the hopeless row back ``infeasible`` early, and every other row
    bitwise its row of the in-process sweep."""
    case, model, outages, Pd, Qd, rows = sample
    picks = [28] + [i for i in range(29, 60) if i not in HOPELESS][:17]
    scenarios = [Scenario(i, Pd[i], Qd[i], outage_branches=outages[i]) for i in picks]
    with SolverFleet(case, model=model) as fleet:
        reference = fleet.solve(scenarios, solutions=True)
    with SolverFleet(case, n_workers=2) as fleet:
        pooled = fleet.solve(scenarios, solutions=True)
    assert [o.scenario_id for o in pooled.outcomes] == sorted(picks)
    assert pooled.quarantined == 0 and pooled.errors == 0
    for got, want in zip(pooled.outcomes, reference.outcomes):
        assert got.scenario_id == want.scenario_id
        assert (got.success, got.infeasible, got.iterations) == (
            want.success, want.infeasible, want.iterations,
        )
        assert got.objective.hex() == want.objective.hex()
        for name in ("x", "lam", "mu", "z"):
            np.testing.assert_array_equal(
                getattr(got.solution, name), getattr(want.solution, name)
            )
        if got.scenario_id == 28:
            assert got.infeasible and not got.converged and got.iterations <= 15
            assert got.iterations == rows[28].iterations
        else:
            assert got.success and not got.infeasible
            assert got.iterations == rows[got.scenario_id].iterations
