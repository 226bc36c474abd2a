"""SC-ACOPF scenario generation.

Security-constrained AC-OPF (Section VIII-E) analyses a large tree of largely
independent scenarios: base-load variations, localised stress and branch
outages.  This module generates such scenario sets — N-1 single-branch
outages, screened N-k outage *sets* (:func:`generate_contingency_set`) and
plain load sweeps; the pool runner and the cluster model consume them.

A :class:`Scenario` carries its outage as a **sorted tuple of branch
indices** (``outage_branches``: ``()`` intact, ``(b,)`` N-1, ``(b1, b2)``
N-2).  The sorted tuple is also the scenario's topology key
(:func:`topology_key`): scenarios dropping the same branch *set* solve the
same network.  Lockstep batching does not group by it — an outage is per-row
data of the batched solve, so every topology shares one lockstep batch.

Outage screening uses a real connectivity check
(:func:`outage_keeps_connected`, union-find over the post-outage live graph)
rather than the old endpoint-degree heuristic, which admitted branches whose
removal splits the network (an islanded outage surfaces deep in the solver as
a singular powerflow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.components import Case
from repro.grid.perturb import sample_loads
from repro.grid.validation import validate_outage_branches
from repro.utils.rng import RNGLike, ensure_rng


def _normalized_outage_branches(outage_branches: Iterable[int]) -> Tuple[int, ...]:
    """Validate the outage indices and return them sorted and de-duplicated."""
    branches = tuple(outage_branches or ())
    for branch in branches:
        if not isinstance(branch, (int, np.integer)):
            raise ValueError(
                f"outage branch indices must be integers, got {branch!r}"
            )
    branches = tuple(int(b) for b in branches)
    for branch in branches:
        if branch < 0:
            raise ValueError(
                f"outage branch index must be non-negative, got {branch} "
                "(a negative index would silently alias the last branch)"
            )
    return tuple(sorted(set(branches)))


@dataclass(frozen=True)
class Scenario:
    """One SC-ACOPF scenario: a load realisation plus an optional branch-outage set.

    ``outage_branches`` is a sorted tuple of branch indices (empty for the
    intact network) that doubles as the scenario's :func:`topology_key`.  Indices are
    validated to be non-negative integers at construction (and sorted,
    de-duplicated) and bounds-checked against the case on :meth:`apply`.
    """

    scenario_id: int
    Pd: np.ndarray
    Qd: np.ndarray
    outage_branches: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "outage_branches", _normalized_outage_branches(self.outage_branches)
        )

    def apply(self, case: Case) -> Case:
        """Return a copy of ``case`` with this scenario's loads and outages applied."""
        scenario_case = case.with_loads(self.Pd, self.Qd, name=f"{case.name}#sc{self.scenario_id}")
        if self.outage_branches:
            validate_outage_branches(self.outage_branches, case.n_branch)
            scenario_case.branch.status[list(self.outage_branches)] = 0
        return scenario_case

    def feature_vector(self, base_mva: float) -> np.ndarray:
        """Model input vector ``[Pd, Qd]`` in p.u."""
        return np.concatenate([self.Pd, self.Qd]) / base_mva


def topology_key(scenario: Scenario) -> Tuple[int, ...]:
    """The network-topology key of a scenario: its sorted outage-branch tuple.

    ``()`` is the intact network; ``(b,)`` an N-1 outage; ``(b1, b2)`` an N-2
    pair, and so on.  Equal keys mean the same network, which is what
    multi-period warm chaining checks before carrying inequality multipliers
    from one step to the next.
    """
    return scenario.outage_branches


@dataclass
class ScenarioSet:
    """A batch of scenarios for one case.

    ``n_bus`` carries the case's bus count so an *empty* set still knows its
    feature width — ``feature_matrix`` on an empty set returns a
    shape-correct ``(0, 2·n_bus)`` array instead of crashing in
    ``np.vstack`` (callers that batch, slice or coalesce requests routinely
    produce empty sets).  When omitted it is inferred from the first
    scenario; an empty set without it degrades to width 0.
    """

    case_name: str
    scenarios: List[Scenario] = field(default_factory=list)
    n_bus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_bus is None and self.scenarios:
            self.n_bus = int(np.asarray(self.scenarios[0].Pd).shape[0])

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> Scenario:
        return self.scenarios[index]

    def feature_matrix(self, base_mva: float) -> np.ndarray:
        """Stacked model inputs for batched inference (shape-correct when empty)."""
        if not self.scenarios:
            return np.zeros((0, 2 * (self.n_bus or 0)))
        return np.vstack([s.feature_vector(base_mva) for s in self.scenarios])


# ------------------------------------------------------------- connectivity
def _n_components(n_bus: int, f: np.ndarray, t: np.ndarray) -> int:
    """Connected-component count of the graph with edges ``(f[i], t[i])``."""
    parent = list(range(n_bus))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    count = n_bus
    for a, b in zip(f, t):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
            count -= 1
    return count


def outage_keeps_connected(case: Case, branches: Sequence[int]) -> bool:
    """True when dropping ``branches`` does not split the live network.

    Union-find over the post-outage live graph, compared against the intact
    live graph's component count — the *real* islanding check.  The old
    endpoint-degree heuristic (both endpoints keep degree > 1) admits
    splitting branches: any branch on a cycle-free chain *segment* passes it
    while its removal still islands the chain's tail, and no degree condition
    can screen joint N-k removals.
    """
    branches = tuple(int(b) for b in branches)
    validate_outage_branches(branches, case.n_branch)
    f, t = case.branch_bus_indices()
    live = case.branch.status > 0
    base_components = _n_components(case.n_bus, f[live], t[live])
    keep = live.copy()
    keep[list(branches)] = False
    return _n_components(case.n_bus, f[keep], t[keep]) == base_components


def screened_outage_sets(
    case: Case,
    k: int = 1,
    max_sets: Optional[int] = None,
    seed: RNGLike = 0,
) -> List[Tuple[int, ...]]:
    """Screened N-k outage sets: size-``k`` combinations of live branches
    whose joint removal keeps the live network connected.

    Combinations are enumerated in lexicographic order over the live-branch
    indices and screened by :func:`outage_keeps_connected`.  When ``max_sets``
    bounds the result, a deterministic subsample (without replacement, from
    ``seed``) of the screened universe is returned, preserving lexicographic
    order — sampling keeps N-2 screening tractable on cases where the full
    pair universe is large.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if max_sets is not None and max_sets < 1:
        raise ValueError("max_sets must be positive")
    live = [int(b) for b in np.flatnonzero(case.branch.status > 0)]
    screened = [
        combo for combo in combinations(live, k) if outage_keeps_connected(case, combo)
    ]
    if max_sets is not None and len(screened) > max_sets:
        rng = ensure_rng(seed)
        chosen = rng.choice(len(screened), size=max_sets, replace=False)
        screened = [screened[i] for i in sorted(int(c) for c in chosen)]
    return screened


# --------------------------------------------------------------- generation
def generate_scenarios(
    case: Case,
    n_scenarios: int,
    variation: float = 0.1,
    contingency_fraction: float = 0.0,
    seed: RNGLike = 0,
) -> ScenarioSet:
    """Generate ``n_scenarios`` load scenarios, optionally with N-1 outages.

    ``contingency_fraction`` of the scenarios additionally drop one random
    in-service branch whose removal keeps the network connected
    (:func:`outage_keeps_connected` — a real islanding check, not the old
    endpoint-degree heuristic).
    """
    if not 0.0 <= contingency_fraction <= 1.0:
        raise ValueError("contingency_fraction must be in [0, 1]")
    rng = ensure_rng(seed)
    loads = sample_loads(case, n_scenarios, variation=variation, seed=rng)

    # Candidate branches for outages: the cheap degree filter is kept as a
    # necessary pre-condition (an endpoint of degree 1 always islands), then
    # each survivor is screened by the actual connectivity check.
    f, t = case.branch_bus_indices()
    live = case.branch.status > 0
    degree = np.bincount(f[live], minlength=case.n_bus) + np.bincount(
        t[live], minlength=case.n_bus
    )
    prefilter = np.flatnonzero(live & (degree[f] > 1) & (degree[t] > 1))
    candidates = np.asarray(
        [b for b in prefilter if outage_keeps_connected(case, (int(b),))], dtype=int
    )

    scenarios = []
    for i, sample in enumerate(loads):
        outage: Tuple[int, ...] = ()
        if candidates.size and rng.random() < contingency_fraction:
            outage = (int(rng.choice(candidates)),)
        scenarios.append(
            Scenario(scenario_id=i, Pd=sample.Pd, Qd=sample.Qd, outage_branches=outage)
        )
    return ScenarioSet(case_name=case.name, scenarios=scenarios, n_bus=case.n_bus)


def generate_contingency_set(
    case: Case,
    n_scenarios: int,
    k: int = 2,
    variation: float = 0.1,
    max_outage_sets: Optional[int] = None,
    seed: RNGLike = 0,
) -> ScenarioSet:
    """N-k contingency screening set: load samples over screened outage sets.

    Each scenario pairs one ±``variation`` load sample with one screened
    N-``k`` outage set (:func:`screened_outage_sets`), assigned round-robin,
    so outage sets recur across the sweep.  ``max_outage_sets`` bounds (by
    deterministic subsampling) how many distinct topologies the sweep visits.
    """
    if n_scenarios < 0:
        raise ValueError("n_scenarios must be non-negative")
    rng = ensure_rng(seed)
    loads = sample_loads(case, n_scenarios, variation=variation, seed=rng)
    outage_sets = screened_outage_sets(case, k=k, max_sets=max_outage_sets, seed=rng)
    if not outage_sets:
        raise ValueError(
            f"case {case.name} has no connectivity-preserving N-{k} outage set"
        )
    scenarios = [
        Scenario(
            scenario_id=i,
            Pd=sample.Pd,
            Qd=sample.Qd,
            outage_branches=outage_sets[i % len(outage_sets)],
        )
        for i, sample in enumerate(loads)
    ]
    return ScenarioSet(case_name=case.name, scenarios=scenarios, n_bus=case.n_bus)
