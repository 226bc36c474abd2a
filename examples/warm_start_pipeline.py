#!/usr/bin/env python3
"""Step-by-step warm-start pipeline on the WSCC 9-bus system.

This example exposes the individual pieces that ``SmartPGSim`` wires together,
which is useful when embedding the library in an existing workflow:

1. build the OPF model and generate ground truth with the MIPS solver,
2. train the physics-informed MTL model explicitly with ``MTLTrainer``,
3. predict warm starts for the validation scenarios and solve them as one
   sweep, where a cold restart recovers any warm-started run that fails,
4. compare against the separate-networks baseline of the paper's Section VIII-D.

Run with ``python examples/warm_start_pipeline.py``.
"""

from __future__ import annotations

import numpy as np

from repro.data import generate_dataset
from repro.grid import get_case, sample_loads
from repro.mtl import (
    MTLTrainer,
    SeparateTaskNetworks,
    SmartPGSimMTL,
    TaskDimensions,
    fast_config,
)
from repro.opf import OPFModel, solve_opf
from repro.parallel import Scenario, ScenarioSet, SolverFleet


def train_variant(name, network_cls, use_physics, dims, train_set, opf_model, config):
    """Train one model variant and report its final loss."""
    network = network_cls(dims, config, seed=0)
    trainer = MTLTrainer(network, train_set, opf_model, config=config, use_physics=use_physics)
    history = trainer.train()
    print(f"  {name:<22} final loss {history.final_loss:.4f} "
          f"({history.train_seconds:.1f} s, {network.n_parameters()} parameters)")
    return trainer


def main() -> None:
    case = get_case("case9")
    opf_model = OPFModel(case)

    # ------------------------------------------------------------ ground truth
    print("Generating ground truth with MIPS (60 scenarios, ±10 % load sampling)...")
    dataset = generate_dataset(case, 60, variation=0.1, seed=7, model=opf_model)
    train_set, val_set = dataset.split(0.8, seed=7)
    print(f"  {dataset.n_samples} converged scenarios, "
          f"mean cold-start iterations {dataset.iterations.mean():.1f}")

    dims = TaskDimensions(
        n_bus=case.n_bus,
        n_gen=case.n_gen,
        n_eq=dataset.task_dim("lam"),
        n_ineq=dataset.task_dim("mu"),
    )
    config = fast_config(epochs=40)

    # ----------------------------------------------------------- train variants
    print("\nTraining the three model variants of Fig. 7:")
    separate = train_variant("separate networks", SeparateTaskNetworks, False, dims, train_set, opf_model, config)
    mtl_plain = train_variant("MTL (no physics)", SmartPGSimMTL, False, dims, train_set, opf_model, config)
    smart = train_variant("Smart-PGSim (physics)", SmartPGSimMTL, True, dims, train_set, opf_model, config)

    # ------------------------------------------------------------- online solve
    print("\nWarm-starting the validation scenarios:")
    header = f"{'variant':<22} {'SR %':>6} {'mean iters':>11} {'cold iters':>11}"
    print(header)
    scenarios = ScenarioSet(
        case.name,
        [Scenario(i, val_set.Pd_mw[i], val_set.Qd_mw[i]) for i in range(val_set.n_samples)],
        n_bus=case.n_bus,
    )
    with SolverFleet(case, model=opf_model) as fleet:
        sweeps = [
            (name, fleet.solve(scenarios, trainer.warm_starts_for(val_set.inputs)))
            for name, trainer in (
                ("separate networks", separate),
                ("MTL (no physics)", mtl_plain),
                ("Smart-PGSim", smart),
            )
        ]
    for name, sweep in sweeps:
        successes = [outcome.success for outcome in sweep.outcomes]
        iters = [outcome.final_iterations for outcome in sweep.outcomes]
        print(f"{name:<22} {100 * np.mean(successes):>6.1f} {np.mean(iters):>11.1f} "
              f"{val_set.iterations.mean():>11.1f}")

    # --------------------------------------------------------- a brand new case
    print("\nSolving one brand-new scenario with the Smart-PGSim warm start:")
    scenario = sample_loads(case, 1, variation=0.1, seed=999)[0]
    cold = solve_opf(case, Pd_mw=scenario.Pd, Qd_mvar=scenario.Qd, model=opf_model)
    warm = smart.warm_start_for(scenario.feature_vector() / case.base_mva)
    warm_result = solve_opf(case, warm_start=warm, Pd_mw=scenario.Pd, Qd_mvar=scenario.Qd, model=opf_model)
    print(f"  cold start : {cold.iterations} iterations, objective {cold.objective:.2f} $/h")
    print(f"  warm start : {warm_result.iterations} iterations, objective {warm_result.objective:.2f} $/h")
    print(f"  cost deviation: {abs(warm_result.objective - cold.objective) / cold.objective:.2e}")


if __name__ == "__main__":
    main()
