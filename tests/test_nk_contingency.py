"""N-k contingency screening: connectivity, validation, grouping and bitwise parity.

Covers the scenario-universe expansion end to end:

* the islanding regression — the old endpoint-degree "bridge" filter admits
  branches whose removal splits the network (any branch on a cycle-free chain
  segment), which the union-find connectivity check must reject;
* typed validation of outage indices (negative at construction, out-of-range
  on apply);
* the sorted, de-duplicated canonical form of ``outage_branches``;
* one lockstep group per sweep: the pooled cut splits a mixed-topology
  sweep without regard to outage sets;
* the headline acceptance property: mixed N-2 lockstep solves are
  bitwise-identical — multipliers included — to per-scenario solves, across
  both batched KKT backends.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from reference.kkt import kkt_solve
from repro.grid import case9, case14, case_from_matpower
from repro.parallel import (
    Scenario,
    ScenarioSet,
    SolverFleet,
    generate_contingency_set,
    generate_scenarios,
    outage_keeps_connected,
    screened_outage_sets,
)
from repro.parallel.pool import _microbatches


def chain_case():
    """Triangle 1-2-3 plus chain 3-4-5.

    Branch (3,4) has both endpoint degrees > 1 (bus 3 has degree 3, bus 4 has
    degree 2), so the old filter admits it — yet removing it islands buses
    4 and 5.
    """
    bus = [
        [1, 3, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [2, 1, 50, 15, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [3, 1, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [4, 1, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [5, 1, 40, 10, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
    ]
    gen = [[1, 90, 0, 300, -300, 1.0, 100, 1, 250, 10]]
    line = [0.01, 0.085, 0.176, 250, 250, 250, 0, 0, 1, -360, 360]
    branch = [
        [1, 2, *line],
        [2, 3, *line],
        [1, 3, *line],
        [3, 4, *line],
        [4, 5, *line],
    ]
    gencost = [[2, 1500, 0, 3, 0.11, 5.0, 150]]
    return case_from_matpower("chain5", 100.0, bus, gen, branch, gencost)


# ------------------------------------------------------------- connectivity
def test_degree_filter_admits_splitting_branch_connectivity_check_rejects():
    case = chain_case()
    f, t = case.branch_bus_indices()
    live = case.branch.status > 0
    degree = np.bincount(f[live], minlength=case.n_bus) + np.bincount(
        t[live], minlength=case.n_bus
    )
    splitting = 3  # branch (3,4): a chain segment, not a leaf branch
    # The old heuristic admits it...
    assert degree[f[splitting]] > 1 and degree[t[splitting]] > 1
    # ...but its removal splits off buses {4, 5}.
    assert not outage_keeps_connected(case, (splitting,))
    # Triangle branches are genuinely safe singles.
    assert outage_keeps_connected(case, (0,))
    assert outage_keeps_connected(case, (1,))
    assert outage_keeps_connected(case, (2,))
    # Joint removals compose: in this tiny case every N-2 set splits (two
    # triangle edges isolate a triangle vertex; chain edges split outright) —
    # and no per-branch degree condition can screen joint removals at all.
    assert not outage_keeps_connected(case, (0, 1))
    assert not outage_keeps_connected(case, (0, 3))
    assert screened_outage_sets(case, k=2) == []


def test_generate_scenarios_never_outages_a_splitting_branch():
    case = chain_case()
    scenario_set = generate_scenarios(case, 64, contingency_fraction=1.0, seed=0)
    drawn = {b for s in scenario_set for b in s.outage_branches}
    assert drawn  # the triangle branches are available...
    assert drawn <= {0, 1, 2}  # ...and no chain branch is ever drawn
    for branch in drawn:
        assert outage_keeps_connected(case, (branch,))


def test_screened_outage_sets_enumeration_and_sampling():
    case = case14()
    singles = screened_outage_sets(case, k=1)
    assert singles and all(len(s) == 1 for s in singles)
    pairs = screened_outage_sets(case, k=2)
    assert pairs and all(len(p) == 2 and p[0] < p[1] for p in pairs)
    for pair in pairs:
        assert outage_keeps_connected(case, pair)
    # Deterministic subsampling: a subset, order-preserving, reproducible.
    sampled = screened_outage_sets(case, k=2, max_sets=5, seed=11)
    assert len(sampled) == 5
    assert sampled == screened_outage_sets(case, k=2, max_sets=5, seed=11)
    assert set(sampled) <= set(pairs)
    assert sampled == sorted(sampled)
    # case9 is a ring with three spurs: every N-2 pair splits the network.
    assert screened_outage_sets(case9(), k=2) == []


def test_generate_contingency_set_round_robins_screened_pairs():
    case = case14()
    cs = generate_contingency_set(case, 9, k=2, max_outage_sets=3, seed=2)
    assert len(cs) == 9
    keys = [s.outage_branches for s in cs]
    assert all(len(k) == 2 for k in keys)
    assert len(set(keys)) == 3
    # Round-robin: scenario i reuses set i % 3, so lockstep groups recur.
    assert keys[0] == keys[3] == keys[6]
    with pytest.raises(ValueError, match="no connectivity-preserving"):
        generate_contingency_set(case9(), 4, k=2)


# --------------------------------------------------------------- validation
def test_negative_outage_index_rejected_at_construction():
    Pd, Qd = np.zeros(3), np.zeros(3)
    with pytest.raises(ValueError, match="non-negative"):
        Scenario(0, Pd, Qd, outage_branches=(-1,))
    with pytest.raises(ValueError, match="non-negative"):
        Scenario(0, Pd, Qd, outage_branches=(0, -2))
    with pytest.raises(ValueError, match="integer"):
        Scenario(0, Pd, Qd, outage_branches=(1.5,))


def test_out_of_range_outage_index_raises_typed_error_on_apply():
    case = case9()
    scenario = Scenario(0, case.bus.Pd, case.bus.Qd, outage_branches=(case.n_branch,))
    with pytest.raises(ValueError, match="out of range"):
        scenario.apply(case)
    pair = Scenario(0, case.bus.Pd, case.bus.Qd, outage_branches=(0, 99))
    with pytest.raises(ValueError, match="out of range"):
        pair.apply(case)


def test_outage_branches_canonical_form():
    Pd, Qd = np.zeros(3), np.zeros(3)
    pair = Scenario(0, Pd, Qd, outage_branches=(7, 2))
    assert pair.outage_branches == (2, 7)  # sorted canonical form
    # dataclasses.replace re-runs __post_init__ on the canonical tuple (the
    # serving path relies on this round-trip).
    clone = dataclasses.replace(pair, scenario_id=5)
    assert clone.outage_branches == (2, 7)
    # Duplicates collapse.
    assert Scenario(0, Pd, Qd, outage_branches=(3, 3)).outage_branches == (3,)


# ----------------------------------------------------------------- grouping
def test_pool_and_scheduler_grouping_agree():
    """One lockstep group per sweep, whatever its topology mix.

    Outages are per-row data of the lockstep solve, so the in-process fleet's
    whole-sweep task holds every scenario in input order, and pool-sized cuts
    are consecutive slices that mix topologies freely.
    """
    case = case14()
    cs = generate_contingency_set(case, 12, k=2, max_outage_sets=4, seed=3)
    mixed = list(cs) + list(generate_scenarios(case, 6, contingency_fraction=0.5, seed=4))
    assert len({s.outage_branches for s in mixed}) > 4

    cuts = _microbatches(len(mixed), n_workers=2)
    assert [len(mb) for mb in cuts] == [9, 9]
    assert [p for mb in cuts for p in mb] == list(range(len(mixed)))
    assert any(len({mixed[p].outage_branches for p in mb}) > 1 for mb in cuts)


# ------------------------------------------------------------ bitwise parity
@pytest.mark.parametrize("kkt_solver", ["factorized", "ldl"])
def test_grouped_n2_solves_match_per_scenario_bitwise(kkt_solver):
    """Acceptance: mixed N-2 lockstep == per-scenario solves, multipliers included.

    The sweep's two topologies march in one lockstep group, and a scenario
    solved alone marches at width 1 on the same intact-pattern kernels;
    lockstep rows are bit-independent, hence the results must agree to the
    last bit, on the KKT solve and on its SuperLU reference (an in-process
    fleet, so the reference can be swapped in).
    """
    case = case14()
    cs = generate_contingency_set(case, 8, k=2, max_outage_sets=2, seed=5)
    assert len({s.outage_branches for s in cs}) == 2  # pairs genuinely recur

    with kkt_solve(kkt_solver), SolverFleet(case) as fleet:
        grouped = fleet.solve(cs, solutions=True)
        singles = [
            fleet.solve(ScenarioSet(case.name, [s], n_bus=case.n_bus), solutions=True).outcomes[0]
            for s in cs
        ]

    assert grouped.success_rate == 1.0
    for a, b in zip(grouped.outcomes, singles):
        assert a.scenario_id == b.scenario_id
        assert a.success == b.success
        assert a.iterations == b.iterations
        assert a.objective == b.objective
        assert a.solution is not None and b.solution is not None
        assert np.array_equal(a.solution.x, b.solution.x)
        assert np.array_equal(a.solution.lam, b.solution.lam)
        assert np.array_equal(a.solution.mu, b.solution.mu)
        assert np.array_equal(a.solution.z, b.solution.z)


def test_n2_sweep_invariant_under_scheduling_knobs():
    """Chunking, steal order, worker count: pure scheduling for N-2 too.

    The whole sweep equals its pooled cuts for 1–3 workers (widths 3, 2 and
    1), each solved as its own sweep.
    """
    case = case14()
    cs = generate_contingency_set(case, 6, k=2, max_outage_sets=3, seed=6)
    with SolverFleet(case) as fleet:
        ref = fleet.solve(cs, solutions=True)
        results = [
            [
                outcome
                for cut in _microbatches(len(cs), n_workers)
                for outcome in fleet.solve(
                    ScenarioSet(case.name, [cs[p] for p in cut]), solutions=True
                ).outcomes
            ]
            for n_workers in (1, 2, 3)
        ]
    for other in results:
        for a, b in zip(ref.outcomes, other, strict=True):
            assert a.iterations == b.iterations
            assert a.objective == b.objective
            assert np.array_equal(a.solution.x, b.solution.x)
            assert np.array_equal(a.solution.mu, b.solution.mu)
