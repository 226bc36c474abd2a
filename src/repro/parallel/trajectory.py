"""Time-coupled multi-period scenario sweeps.

A day-ahead operational study is not a bag of independent scenarios but a
*trajectory*: ``T`` load realisations a time step apart, where the grid state
drifts a few percent between consecutive steps.  That temporal locality is a
warm-start gold mine the one-shot sweep machinery cannot exploit — step
``t``'s converged solution is an excellent initial point for step ``t+1``,
typically better than anything a learned model predicts, because it is an
*exact* optimum of a nearby problem.

:class:`MultiPeriodSweep` drives exactly that chaining over an existing
:class:`~repro.parallel.pool.SolverFleet`:

* each step is a full :class:`~repro.parallel.scenarios.ScenarioSet` (one
  scenario per tracked sub-case — the base network plus any contingencies
  under watch), solved through the fleet's normal dispatch, so steal
  scheduling, lockstep batching and the retire-and-refill window all apply
  *within* a step;
* between steps, scenario ``j`` of step ``t+1`` is warm-started from the
  converged solution of scenario ``j`` of step ``t`` — primal point and
  equality multipliers always; inequality multipliers ``µ`` and slacks ``Z``
  only when the two scenarios share a topology key (an outage change remaps
  the inequality rows, so stale ``µ``/``Z`` would be injected against the
  wrong constraints);
* failed / retired steps chain *through*: a scenario whose step ``t`` solve
  did not converge passes its most recent good solution forward (or goes
  cold when there is none yet);
* a time bound is a budget *per step*: it becomes an absolute deadline just
  before that step's solve, the one deadline form the fleet takes.

Chaining needs each step's converged variables back, so a chained step asks
its :meth:`~repro.parallel.pool.SolverFleet.solve` call for ``solutions`` —
any fleet will do, the engine's ordinary serving fleet included.

Per-step :class:`~repro.parallel.pool.SweepResult` records are stamped with
their ``period`` and collected in a :class:`TrajectoryResult`, so the warm
benefit is measurable step by step (cold first step, warm tail — the
multi-period analogue of the paper's Fig. 4 warm/cold iteration gap).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.grid.components import Case
from repro.grid.perturb import LoadSample
from repro.opf.warmstart import WarmStart
from repro.parallel.pool import SolverFleet, SweepResult
from repro.parallel.scenarios import Scenario, ScenarioSet, topology_key

__all__ = [
    "MultiPeriodSweep",
    "TrajectoryResult",
    "trajectory_steps",
    "chained_warm_start",
]


def trajectory_steps(
    case: Case,
    samples: Sequence[LoadSample],
    outage_branches: Sequence[Sequence[int]] = ((),),
) -> List[ScenarioSet]:
    """Build per-step scenario sets from a load trajectory.

    Step ``t`` tracks one scenario per entry of ``outage_branches`` (default:
    just the intact network) under ``samples[t]``'s loads — the classic
    "base case plus watched contingencies" rolling study.  Scenario ids are
    the tracked-case index, stable across steps, which is what lets the
    chaining in :class:`MultiPeriodSweep` match solutions step to step.
    """
    tracked = [tuple(int(b) for b in branches) for branches in outage_branches]
    if not tracked:
        raise ValueError("outage_branches must track at least one sub-case")
    return [
        ScenarioSet(
            case_name=case.name,
            scenarios=[
                Scenario(
                    scenario_id=j,
                    Pd=sample.Pd,
                    Qd=sample.Qd,
                    outage_branches=branches,
                )
                for j, branches in enumerate(tracked)
            ],
            n_bus=case.n_bus,
        )
        for sample in samples
    ]


def chained_warm_start(
    solution: Optional[WarmStart],
    previous: Scenario,
    current: Scenario,
) -> Optional[WarmStart]:
    """The step-to-step warm start carried from ``previous`` to ``current``.

    Primal point and equality multipliers always chain; ``µ``/``Z`` only when
    both scenarios share a topology key, because an outage change remaps the
    inequality constraint rows.  (The solver additionally masks ``µ``/``Z``
    on any inequality-dimension mismatch as a belt-and-braces guard; masking
    here is the semantic rule, not just a shape rule.)  ``None`` solution →
    ``None`` (cold start).
    """
    if solution is None:
        return None
    if topology_key(previous) != topology_key(current):
        solution = solution.masked(use_mu=False, use_z=False)
    return solution.clipped_duals()


@dataclass
class TrajectoryResult:
    """Aggregated outcome of a multi-period sweep.

    ``steps[t]`` is the full :class:`SweepResult` of period ``t`` (stamped
    ``period=t``); the properties aggregate across the trajectory.
    """

    case_name: str
    steps: List[SweepResult] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def wall_seconds(self) -> float:
        """Summed per-step walls (steps are strictly sequential)."""
        return float(sum(step.wall_seconds for step in self.steps))

    @property
    def success_rate(self) -> float:
        rates = [o.converged for step in self.steps for o in step.outcomes]
        return float(np.mean(rates)) if rates else 0.0

    @property
    def total_iterations(self) -> int:
        """Summed final-path iterations over every step and scenario."""
        return int(sum(o.final_iterations for step in self.steps for o in step.outcomes))

    def iterations_by_step(self) -> List[int]:
        """Per-step summed iterations — the warm-chaining fingerprint (cold
        first step, cheaper warm tail)."""
        return [
            int(sum(o.final_iterations for o in step.outcomes)) for step in self.steps
        ]

    def total_solver_seconds(self) -> float:
        return float(sum(step.total_solver_seconds() for step in self.steps))


class MultiPeriodSweep:
    """Drive a T-step trajectory over a fleet with step-to-step warm chaining.

    The chained warm starts *are* the previous step's solutions, so a
    chaining driver asks every step's solve for them.  The driver itself is
    policy-free about intra-step execution: whatever worker count /
    microbatch window the fleet was built with applies to each step's sweep
    unchanged, so trajectory results inherit the fleet's bitwise scheduling
    invariance within every step.
    """

    def __init__(self, fleet: SolverFleet, warm_chain: bool = True):
        self.fleet = fleet
        self.warm_chain = warm_chain

    def run(
        self,
        steps: Sequence[ScenarioSet],
        initial_warm_starts: Optional[List[Optional[WarmStart]]] = None,
        deadline_seconds: Optional[object] = None,
    ) -> TrajectoryResult:
        """Solve the trajectory; returns per-step records.

        ``initial_warm_starts`` seeds step 0 (e.g. MTL predictions); later
        steps chain from their predecessor's solutions, matched by scenario
        *position* within the step (steps must therefore be equally sized —
        use :func:`trajectory_steps` to build aligned step sets).
        ``deadline_seconds`` is a wall budget per step (a scalar or one entry
        per tracked sub-case; ``inf``/``nan`` = unbounded), counted from the
        moment that step's solve starts.
        """
        steps = list(steps)
        if not steps:
            raise ValueError("trajectory must have at least one step")
        n_tracked = len(steps[0])
        if any(len(step) != n_tracked for step in steps):
            raise ValueError("every trajectory step must track the same sub-cases")
        budget = None
        if deadline_seconds is not None:
            budget = np.asarray(deadline_seconds, dtype=float)
            if np.any(budget <= 0):
                raise ValueError("deadline_seconds must be positive")

        result = TrajectoryResult(case_name=self.fleet.case.name)
        carried: List[Optional[WarmStart]] = [None] * n_tracked
        carried_from: List[Optional[Scenario]] = [None] * n_tracked
        warm_starts = initial_warm_starts
        for t, step in enumerate(steps):
            if t > 0 and self.warm_chain:
                warm_starts = [
                    chained_warm_start(carried[j], carried_from[j], step[j])
                    if carried_from[j] is not None
                    else None
                    for j in range(n_tracked)
                ]
            elif t > 0:
                warm_starts = None
            sweep = self.fleet.solve(
                step,
                warm_starts,
                deadline=None if budget is None else time.monotonic() + budget,
                solutions=self.warm_chain,
            )
            sweep.period = t
            result.steps.append(sweep)
            # Chain through failures: keep the most recent good solution.
            by_id = {o.scenario_id: o for o in sweep.outcomes}
            for j in range(n_tracked):
                outcome = by_id.get(step[j].scenario_id)
                if outcome is not None and outcome.converged and outcome.solution is not None:
                    carried[j] = outcome.solution
                    carried_from[j] = step[j]
        return result
