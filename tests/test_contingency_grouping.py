"""Cross-sweep contingency batching parity: grouped == per-sweep, bit for bit.

Outage-heavy SC-ACOPF screening runs many small N-1 sweeps.  Concatenated
into one :class:`ScenarioSet` (ids renumbered onto positions, the way
:class:`~repro.serving.AsyncServer` coalesces requests), they become one
dispatch whose micro-batches mix intact and outaged scenarios of different
sweeps — one lockstep group per cut, served by the worker's one batched model
with the outages as per-row data.  Grouping must be a pure scheduling
decision: every scenario's iterations, objective and multipliers must match
the per-sweep path exactly — including scenarios whose warm attempt fails
and is re-solved cold, whose accounting must survive the regrouping
untouched.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.opf import OPFModel, solve_opf
from repro.opf.warmstart import WarmStart
from repro.parallel import Scenario, ScenarioSet, SolverFleet
from repro.parallel.pool import _microbatches


def _outage_candidates(case, count):
    """First ``count`` branches whose removal keeps every bus degree >= 1."""
    f, t = case.branch_bus_indices()
    live = case.branch.status > 0
    degree = np.bincount(f[live], minlength=case.n_bus) + np.bincount(
        t[live], minlength=case.n_bus
    )
    candidates = np.flatnonzero(live & (degree[f] > 1) & (degree[t] > 1))
    assert candidates.size >= count
    return [int(b) for b in candidates[:count]]


def _n1_sweeps(case, branches, per_sweep, n_sweeps, seed):
    """N-1 screening sweeps cycling over a shared outage-branch set."""
    samples = sample_loads(case, per_sweep * n_sweeps, variation=0.05, seed=seed)
    sweeps = []
    k = 0
    for _ in range(n_sweeps):
        scenarios = []
        for i in range(per_sweep):
            outage = (branches[k % len(branches)],) if i % 2 == 0 else ()
            scenarios.append(Scenario(i, samples[k].Pd, samples[k].Qd, outage_branches=outage))
            k += 1
        sweeps.append(ScenarioSet(case.name, scenarios))
    return sweeps


def _concatenated(case, sweeps):
    """The sweeps as one set, ids renumbered onto positions."""
    merged = [s for sweep in sweeps for s in sweep]
    return ScenarioSet(case.name, [replace(s, scenario_id=p) for p, s in enumerate(merged)])


def _split(grouped, sweeps):
    """A concatenated sweep's outcomes per input sweep, original ids restored."""
    parts, start = [], 0
    for sweep in sweeps:
        rows = grouped.outcomes[start : start + len(sweep)]
        parts.append([replace(o, scenario_id=s.scenario_id) for o, s in zip(rows, sweep)])
        start += len(sweep)
    return parts


def _assert_sweeps_bitwise(per_sweep_results, grouped_parts):
    for sep, grp in zip(per_sweep_results, grouped_parts, strict=True):
        assert len(grp) == sep.n_scenarios
        for a, b in zip(sep.outcomes, grp):
            assert a.scenario_id == b.scenario_id
            assert a.success == b.success
            assert a.converged == b.converged
            assert a.iterations == b.iterations
            assert a.used_fallback == b.used_fallback
            assert a.fallback_success == b.fallback_success
            assert a.iterations_fallback == b.iterations_fallback
            if a.success:
                assert a.objective == b.objective
            if a.used_fallback and a.fallback_success:
                assert a.objective_fallback == b.objective_fallback
            if a.solution is not None:
                assert b.solution is not None
                assert np.array_equal(a.solution.x, b.solution.x)
                assert np.array_equal(a.solution.lam, b.solution.lam)
                assert np.array_equal(a.solution.mu, b.solution.mu)
                assert np.array_equal(a.solution.z, b.solution.z)


@pytest.mark.parametrize("case_name", ["case14", "case118s"])
def test_grouped_n1_screening_matches_per_sweep_bitwise(case_name):
    case = get_case(case_name)
    branches = _outage_candidates(case, 2)
    per_sweep = 4 if case_name == "case118s" else 6
    sweeps = _n1_sweeps(case, branches, per_sweep=per_sweep, n_sweeps=2, seed=3)
    # The sweeps genuinely share outage branches (the fragmentation scenario).
    shared = set.intersection(
        *({s.outage_branches for s in sweep if s.outage_branches} for sweep in sweeps)
    )
    assert shared

    # One group per concatenated sweep: its pooled cuts mix the sweeps' topologies.
    merged = _concatenated(case, sweeps)
    cuts = _microbatches(len(merged), n_workers=2)
    assert [p for mb in cuts for p in mb] == list(range(len(merged)))
    assert all(len({merged[p].outage_branches for p in mb}) > 1 for mb in cuts)

    with SolverFleet(case) as fleet:
        separate = [fleet.solve(sweep, solutions=True) for sweep in sweeps]
        grouped = fleet.solve(merged, solutions=True)
    _assert_sweeps_bitwise(separate, _split(grouped, sweeps))


def test_grouped_parity_with_mixed_fallback_members():
    """A poisoned warm start fails identically under grouping and recovers."""
    case = get_case("case14")
    branches = _outage_candidates(case, 2)
    sweeps = _n1_sweeps(case, branches, per_sweep=4, n_sweeps=2, seed=7)

    model = OPFModel(case)
    good = solve_opf(case, model=model).warm_start()
    poisoned = WarmStart(x=good.x * 200.0, lam=good.lam, mu=good.mu, z=good.z)
    # One poisoned load-only member in the first sweep, the rest cold.
    warm_lists = [[None] * 4 for _ in sweeps]
    warm_lists[0][1] = poisoned

    with SolverFleet(case) as fleet:
        separate = [
            fleet.solve(sweep, warms, solutions=True) for sweep, warms in zip(sweeps, warm_lists)
        ]
        grouped = fleet.solve(
            _concatenated(case, sweeps), [w for warms in warm_lists for w in warms], solutions=True
        )

    parts = _split(grouped, sweeps)
    poisoned_outcome = parts[0][1]
    assert not poisoned_outcome.success
    assert poisoned_outcome.used_fallback and poisoned_outcome.fallback_success
    assert poisoned_outcome.converged
    _assert_sweeps_bitwise(separate, parts)


def test_concatenated_sweep_wall_and_share_semantics():
    """A concatenated sweep's additive shares stay within its one wall."""
    case = get_case("case14")
    branches = _outage_candidates(case, 2)
    sweeps = _n1_sweeps(case, branches, per_sweep=4, n_sweeps=2, seed=9)
    with SolverFleet(case) as fleet:
        grouped = fleet.solve(_concatenated(case, sweeps))
    assert grouped.n_scenarios == sum(len(sweep) for sweep in sweeps)
    assert 0.0 < grouped.total_solver_seconds() <= grouped.wall_seconds + 1e-6
