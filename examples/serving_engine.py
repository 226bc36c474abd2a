#!/usr/bin/env python3
"""Deploying Smart-PGSim: persist a trained engine, reload it, serve a batch.

The offline phase (ground-truth generation + MTL training) happens once; a
deployed system then serves load scenarios from the saved artifact without
ever retraining.  The engine serves the retrieval start — the inverse-
distance-weighted mean of the four nearest training solutions — which took
fewer MIPS iterations than the MTL's prediction on the benchmark fixture; the
MTL stays the paper's model behind ``online_evaluate`` and the figures.  This
example walks the full deployment loop:

1. train a small pipeline on the WSCC 9-bus system and wrap its training
   solutions in a ``WarmStartEngine``,
2. ``save_artifact`` → one ``.npz`` bundling the retrieval table (training
   loads and solutions), the iteration cap and the case fingerprint,
3. ``load_artifact`` → a fresh engine reconstructed from disk (bit-identical
   starts, no retraining),
4. serve a batch of scenarios: each intact row starts from its nearest
   training solutions, a row with a branch outage starts cold, the solver
   fleet dispatches the MIPS solves, and a failed warm solve is re-solved
   from the solver default (the paper's cold restart),
5. show that loading the artifact against the *wrong* grid is rejected.

Run with ``python examples/serving_engine.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import SmartPGSim, SmartPGSimConfig
from repro.engine import ArtifactMismatchError, load_artifact
from repro.grid import get_case
from repro.mtl import fast_config
from repro.parallel import generate_scenarios


def main() -> None:
    case = get_case("case9")

    # ------------------------------------------------------------ offline phase
    print("Offline: generating ground truth and training the MTL model...")
    framework = SmartPGSim(
        case,
        SmartPGSimConfig(n_samples=40, mtl=fast_config(epochs=25), seed=7),
    )
    framework.offline()
    engine = framework.engine

    # -------------------------------------------------------------- persistence
    artifact_dir = Path(tempfile.mkdtemp(prefix="smart_pgsim_"))
    artifact_path = engine.save_artifact(artifact_dir / "engine_case9.npz")
    size_kb = artifact_path.stat().st_size / 1024
    print(f"\nSaved engine artifact to {artifact_path} ({size_kb:.0f} KiB)")

    # A deployment reconstructs the engine from disk — no dataset, no training.
    # Each request batch is advanced through the interior-point iterations
    # together (vectorised evaluation/assembly, per-scenario factorisation only).
    served = load_artifact(artifact_path, case)
    probe = framework.artifacts.validation_set.inputs
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(
            engine.predict_physical(probe).values(),
            served.predict_physical(probe).values(),
        )
    )
    print(f"Reloaded engine reproduces its warm starts bit-for-bit: {identical}")

    # ----------------------------------------------------------------- serving
    print("\nServing a batch of 12 scenarios (2 with N-1 branch outages, served cold)...")
    scenarios = generate_scenarios(case, 12, variation=0.1, contingency_fraction=0.15, seed=99)
    with served:
        sweep = served.serve(scenarios, n_workers=1)
    print(f"  throughput      : {sweep.throughput:.1f} scenarios/s")
    print(f"  warm-start SR   : {100 * sweep.warm_success_rate:.0f} %")
    print(f"  converged (all) : {100 * sweep.success_rate:.0f} %")
    print(f"  fallback used   : {100 * sweep.fallback_rate:.0f} % of scenarios")
    print(f"{'id':>4} {'iters':>6} {'fallback':>9} {'objective $/h':>14}")
    for outcome in sweep.outcomes:
        print(
            f"{outcome.scenario_id:>4} {outcome.final_iterations:>6} "
            f"{'yes' if outcome.used_fallback else 'no':>9} {outcome.final_objective:>14.2f}"
        )

    # ----------------------------------------------------- fingerprint guarding
    print("\nLoading the artifact against the wrong grid is rejected:")
    try:
        load_artifact(artifact_path, get_case("case14"))
    except ArtifactMismatchError as exc:
        print(f"  ArtifactMismatchError: {exc}")


if __name__ == "__main__":
    main()
