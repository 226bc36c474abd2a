#!/usr/bin/env python3
"""SC-ACOPF style scenario sweep with data-parallel workers (Fig. 9 workflow).

Security-constrained studies evaluate thousands of scenarios (load variations
and N-1 contingencies).  This example:

1. trains a Smart-PGSim model on the 14-bus system,
2. generates a scenario set including branch outages,
3. produces warm starts for every scenario with batched inference,
4. runs the sweep through the process-pool runner, and
5. extrapolates strong/weak scaling to 128 workers with the calibrated
   cluster model used for the Fig. 9 reproduction.

Run with ``python examples/scaling_scenarios.py [n_scenarios] [n_workers]``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core import SmartPGSim, SmartPGSimConfig
from repro.grid import get_case
from repro.mtl import fast_config
from repro.parallel import (
    PAPER_WORKER_COUNTS,
    ClusterModel,
    SolverFleet,
    generate_scenarios,
)


def main() -> None:
    n_scenarios = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    n_workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    case = get_case("case14")
    print(f"Training Smart-PGSim on {case.name}...")
    framework = SmartPGSim(case, SmartPGSimConfig(n_samples=50, mtl=fast_config(epochs=25), seed=1))
    framework.offline()
    trainer = framework.artifacts.trainer

    # ------------------------------------------------------------ scenario sweep
    scenarios = generate_scenarios(case, n_scenarios, variation=0.1, contingency_fraction=0.25, seed=3)
    outages = sum(1 for s in scenarios if s.outage_branches)
    print(f"\nGenerated {len(scenarios)} scenarios ({outages} with an N-1 branch outage)")

    # One batched forward pass covers the whole sweep.
    warm_starts = trainer.warm_starts_for(scenarios.feature_matrix(case.base_mva))

    print(f"Running the sweep on {n_workers} worker process(es)...")
    with SolverFleet(case, n_workers=n_workers) as fleet:
        sweep = fleet.solve(scenarios, warm_starts)
    print(f"  solved {sweep.n_scenarios} scenarios in {sweep.wall_seconds:.1f} s "
          f"({sweep.throughput:.2f} scenarios/s, success rate {100 * sweep.success_rate:.1f} %)")
    print(f"  serial-equivalent solver time: {sweep.total_solver_seconds():.1f} s")
    iters = [o.iterations for o in sweep.outcomes]
    print(f"  warm-started iterations: mean {np.mean(iters):.1f}, max {max(iters)}")

    # -------------------------------------------------------------- Fig. 9 model
    # Anchor the analytic cluster model to the measured end-to-end solve rate
    # (the serial-equivalent of this sweep), not inference alone.
    cluster = ClusterModel.calibrate(sweep.n_scenarios / sweep.total_solver_seconds())
    print(f"\nCalibrated single-worker solve throughput: {cluster.throughput:.1f} scenarios/s")
    strong = cluster.strong_scaling(10_000, PAPER_WORKER_COUNTS)
    weak = cluster.weak_scaling(10_000, PAPER_WORKER_COUNTS)
    print(f"{'workers':>8} {'strong speedup':>15} {'weak rate (scen/s)':>19}")
    for w in PAPER_WORKER_COUNTS:
        print(f"{w:>8} {strong[w]:>15.1f} {weak[w]:>19.0f}")


if __name__ == "__main__":
    main()
