"""Calibrated analytic model of data-parallel scaling (Fig. 9).

The paper scales Smart-PGSim inference over up to 128 V100 GPUs with data
parallelism: every device holds a replica of the model and processes its local
batch of scenarios, with a broadcast of the model and mild load imbalance
limiting the achieved speedup.  Physical GPUs are not available in this
environment, so the scaling experiment is reproduced with an analytic model
calibrated from measured single-worker throughput:

* per-worker compute time  = ``n_local_scenarios / throughput``
* broadcast / staging time = ``broadcast_base + broadcast_per_worker · (w - 1)``
* load imbalance           = the slowest worker carries ``ceil(n / w)`` scenarios
  plus an ``imbalance_factor`` overhead that grows with the worker count,
  mimicking the NVLink/GPUDirect staging effect the paper describes.

The model reports both speedup (strong scaling) and sustained throughput
(weak scaling), which is the shape of Fig. 9(a)/(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class ClusterModel:
    """Analytic cluster-scaling model.

    ``throughput`` is scenarios/second of a single worker; the remaining
    parameters control communication and imbalance overheads.
    """

    throughput: float
    broadcast_base: float = 0.02
    broadcast_per_worker: float = 0.004
    imbalance_factor: float = 0.015
    #: Work (in "scenario-equivalents") represented by one scenario; used to
    #: convert throughput into a FLOP-style rate for the weak-scaling plot.
    flops_per_scenario: float = 1.0

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError("throughput must be positive")
        if min(self.broadcast_base, self.broadcast_per_worker, self.imbalance_factor) < 0:
            raise ValueError("overhead parameters must be non-negative")

    # -------------------------------------------------------------- constructors
    @classmethod
    def calibrate(cls, engine_throughput: float, **overrides) -> "ClusterModel":
        """Build the model from a *measured* single-worker engine rate.

        ``engine_throughput`` is the scenarios/second achieved by one batched
        serving engine worker (e.g. ``SweepResult.throughput`` from a
        :meth:`repro.engine.engine.WarmStartEngine.serve` run), so the Fig. 9
        projection is anchored to the real end-to-end rate — inference plus
        warm-started solve — instead of a hand-fed constant.
        """
        return cls(throughput=float(engine_throughput), **overrides)

    # ------------------------------------------------------------------ timing
    def time_for(self, n_scenarios: int, n_workers: int) -> float:
        """Wall-clock estimate for ``n_scenarios`` on ``n_workers`` workers."""
        if n_scenarios < 1 or n_workers < 1:
            raise ValueError("n_scenarios and n_workers must be positive")
        local = math.ceil(n_scenarios / n_workers)
        compute = local / self.throughput
        imbalance = compute * self.imbalance_factor * math.log2(max(n_workers, 1) + 1)
        comm = self.broadcast_base + self.broadcast_per_worker * (n_workers - 1)
        return compute + imbalance + comm

    # ------------------------------------------------------------- strong scaling
    def strong_scaling(self, n_scenarios: int, workers: Sequence[int]) -> Dict[int, float]:
        """Speedup over one worker for a fixed total problem count (Fig. 9a)."""
        t1 = self.time_for(n_scenarios, 1)
        return {int(w): t1 / self.time_for(n_scenarios, int(w)) for w in workers}

    # --------------------------------------------------------------- weak scaling
    def weak_scaling(self, scenarios_per_worker: int, workers: Sequence[int]) -> Dict[int, float]:
        """Sustained rate (scenario-equivalents per second) when work grows with workers (Fig. 9b)."""
        rates = {}
        for w in workers:
            w = int(w)
            n = scenarios_per_worker * w
            rates[w] = n * self.flops_per_scenario / self.time_for(n, w)
        return rates

    def efficiency(self, n_scenarios: int, workers: Sequence[int]) -> Dict[int, float]:
        """Parallel efficiency (speedup / workers) for strong scaling."""
        return {w: s / w for w, s in self.strong_scaling(n_scenarios, workers).items()}


#: The GPU counts used on the x-axis of Fig. 9.
PAPER_WORKER_COUNTS: List[int] = [1, 16, 32, 64, 128]
