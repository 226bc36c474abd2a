"""Scenario scheduling: micro-batches for the fleet's work queue.

Real sweeps are *skewed* — cold starts take several times the iterations of
warm ones — so handing each worker one fixed chunk up front lets a single
slow chunk serialise the whole sweep while the other workers idle.  This
module supplies the scheduling layer instead:

* :func:`make_microbatches` — cuts a sweep, in input order, into ranges of
  positions sized by the worker count (:func:`auto_microbatch_size`).
  Topology plays no part: a branch outage is per-row data of the lockstep
  solve (see :mod:`repro.opf.batch`), so intact, N-1 and N-k scenarios share
  micro-batches.  The micro-batch list is the
  fleet's work queue: the supervised pool sends a persistent worker the next
  micro-batch the moment it finishes one, so a straggler holds up only its
  own micro-batch.
* Cross-sweep batching — :func:`make_microbatches` accepts any flat scenario
  sequence, so :meth:`~repro.parallel.pool.SolverFleet.solve_many`
  concatenates several screening sweeps into one queue of wide micro-batches.

The policy is **deterministic** (a pure function of the input order) and only
decides *where and with whom* a scenario is solved — never *how*.  Lockstep
batch solves are row-independent bit for bit, so per-scenario results are
invariant under task order, worker count and micro-batch size; the
scheduler-invariant test harness pins exactly that.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.parallel.scenarios import Scenario

__all__ = [
    "auto_microbatch_size",
    "make_microbatches",
]

#: Micro-batches per worker the auto-sized queue aims for.  Two ties one
#: fixed chunk per worker on uniform sweeps (wider lockstep batches amortise
#: more) while an idle worker can still take the other half of a straggler's
#: share; the measurements behind it are in ``benchmarks/README.md``.
_MICROBATCHES_PER_WORKER = 2


def auto_microbatch_size(n_scenarios: int, n_workers: int) -> int:
    """Default micro-batch size for a sweep of ``n_scenarios``.

    Sized so the queue holds roughly :data:`_MICROBATCHES_PER_WORKER`
    micro-batches per worker: small enough that a straggler cannot hoard much
    work behind it, large enough that the lockstep batch win is not given away.
    """
    if n_scenarios < 1:
        return 1
    return max(1, -(-n_scenarios // (max(n_workers, 1) * _MICROBATCHES_PER_WORKER)))


def make_microbatches(scenarios: Sequence[Scenario], n_workers: int = 1) -> List[range]:
    """Cut a flat scenario sequence into micro-batches of positions.

    Consecutive ranges of :func:`auto_microbatch_size` positions (indices into
    ``scenarios``, not scenario ids — ids may collide across merged sweeps),
    in input order, whatever their outage sets.  The result is the fleet's
    work queue; its order is part of the deterministic contract but
    per-scenario results do not depend on it.
    """
    size = auto_microbatch_size(len(scenarios), n_workers)
    return [
        range(start, min(start + size, len(scenarios)))
        for start in range(0, len(scenarios), size)
    ]
