"""Scenario scheduling: topology-keyed micro-batches for the fleet's work queue.

Real sweeps are *skewed* — cold starts take several times the iterations of
warm ones, outage scenarios pay extra model work — so handing each worker one
fixed chunk up front lets a single slow chunk serialise the whole sweep while
the other workers idle.  This module supplies the scheduling layer instead:

* :func:`make_microbatches` — splits a sweep into **topology-keyed
  micro-batches**: scenarios sharing a network topology (same outage-branch
  set, or the base network) group together, because only same-structure
  problems can march in lockstep, and each group is cut into micro-batches of
  bounded size.  The micro-batch list is the fleet's shared work queue:
  persistent workers pull the next micro-batch the moment they finish one, so
  a straggler holds up only its own micro-batch.
* Cross-sweep contingency batching — :func:`make_microbatches` accepts any
  flat scenario sequence, so :meth:`~repro.parallel.pool.SolverFleet.solve_many`
  concatenates several N-1 sweeps and scenarios that share an outage branch
  across sweeps land in the same lockstep group, recovering the batch win
  that per-sweep fragmentation forfeits.

The policy is **deterministic** (a pure function of the input order) and only
decides *where and with whom* a scenario is solved — never *how*.  Lockstep
batch solves are row-independent bit for bit, so per-scenario results are
invariant under steal order, worker count and micro-batch size; the
scheduler-invariant test harness pins exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.scenarios import Scenario

__all__ = [
    "MicroBatch",
    "topology_key",
    "auto_microbatch_size",
    "make_microbatches",
]

#: Micro-batches per worker the auto-sized queue aims for.  Two ties one
#: fixed chunk per worker on uniform sweeps (wider lockstep batches amortise
#: more) while an idle worker can still take the other half of a straggler's
#: share; the measurements behind it are in ``benchmarks/README.md``.
_MICROBATCHES_PER_WORKER = 2


@dataclass(frozen=True)
class MicroBatch:
    """A topology-pure unit of schedulable work.

    ``positions`` are indices into the flat scenario sequence the scheduler
    was given (NOT scenario ids — ids may collide across sweeps when several
    are merged); ``key`` is the shared topology key of every member (the
    sorted outage-branch tuple; ``()`` for the intact network).
    """

    key: Tuple[int, ...]
    positions: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.positions)


def topology_key(scenario: Scenario) -> Tuple[int, ...]:
    """The network-topology key of a scenario: its sorted outage-branch tuple.

    ``()`` is the intact network; ``(b,)`` an N-1 outage; ``(b1, b2)`` an N-2
    pair, and so on — topology keys *compose*, so N-k scenarios group exactly
    like N-1 ones.  Scenarios with equal keys share admittances, sparsity
    patterns and bounds, so they can be solved in one lockstep group by the
    batched MIPS kernels.  This is the **single source of truth** for
    topology grouping: the scheduler's micro-batches and the pool workers'
    lockstep groups both key on it (a divergence between the two silently
    changes lockstep group membership).
    """
    return scenario.outage_branches


def auto_microbatch_size(n_scenarios: int, n_workers: int) -> int:
    """Default micro-batch size for a sweep of ``n_scenarios``.

    Sized so the queue holds roughly :data:`_MICROBATCHES_PER_WORKER`
    micro-batches per worker: small enough that a straggler cannot hoard much
    work behind it, large enough that the lockstep batch win is not given away.
    """
    if n_scenarios < 1:
        return 1
    return max(1, -(-n_scenarios // (max(n_workers, 1) * _MICROBATCHES_PER_WORKER)))


def make_microbatches(
    scenarios: Sequence[Scenario],
    microbatch: Optional[int] = None,
    n_workers: int = 1,
) -> List[MicroBatch]:
    """Cut a flat scenario sequence into topology-keyed micro-batches.

    Scenarios are grouped by :func:`topology_key` (groups ordered by first
    appearance, members in input order — so merged multi-sweep sequences put
    same-outage scenarios of *different* sweeps into the same group), then
    each group is sliced into micro-batches of at most ``microbatch``
    scenarios (:func:`auto_microbatch_size` when omitted).  The result is the
    fleet's work queue; its order is part of the deterministic contract but
    per-scenario results do not depend on it.
    """
    if microbatch is None:
        microbatch = auto_microbatch_size(len(scenarios), n_workers)
    if microbatch < 1:
        raise ValueError("microbatch must be positive")
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for pos, scenario in enumerate(scenarios):
        groups.setdefault(topology_key(scenario), []).append(pos)
    batches: List[MicroBatch] = []
    for key, positions in groups.items():
        for start in range(0, len(positions), microbatch):
            batches.append(
                MicroBatch(key=key, positions=tuple(positions[start : start + microbatch]))
            )
    return batches
