"""Warm-start corpus on case118s: the served start against the MTL and simple starts.

The offline phase runs at the perfbench fixture's configuration (40 samples,
30 epochs, ±5 % loads, seed 0), and 24 fresh load draws are solved from five
starts, each through one ``solve_opf_batch`` call with default options and no
recovery:

* cold — the solver default;
* MTL — the trained network's prediction (the paper's model);
* NN-1 — the nearest training solution;
* kNN-4 — the engine's served start, the inverse-distance-weighted mean of
  the four nearest training solutions;
* train mean — the mean training solution, the same for every row.

Iteration counts are deterministic, so this is a clock-free gate: every start
converges, each beats cold, and the served start takes no more iterations
than the MTL — the bar a learned start must clear to be served again.
"""

import numpy as np
import pytest

from reference.starts import nearest_one, train_mean
from repro.core import SmartPGSim, SmartPGSimConfig
from repro.grid import get_case, sample_loads
from repro.mtl import fast_config, warm_starts_from_predictions
from repro.opf import solve_opf_batch
from repro.parallel import Scenario, ScenarioSet

N_SAMPLES, EPOCHS, VARIATION, SEED = 40, 30, 0.05, 0
N_ROWS, ROWS_SEED = 24, 12345


@pytest.fixture(scope="module")
def corpus():
    case = get_case("case118s")
    config = SmartPGSimConfig(
        n_samples=N_SAMPLES, load_variation=VARIATION, mtl=fast_config(epochs=EPOCHS), seed=SEED
    )
    with SmartPGSim(case, config) as framework:
        artifacts = framework.offline()
        samples = sample_loads(case, N_ROWS, variation=VARIATION, seed=ROWS_SEED)
        rows = ScenarioSet(
            case.name, [Scenario(i, s.Pd, s.Qd) for i, s in enumerate(samples)], n_bus=case.n_bus
        )
        features = rows.feature_matrix(case.base_mva)
        train, model = artifacts.train_set, framework.opf_model
        starts = {
            "cold": None,
            "MTL": artifacts.trainer.warm_starts_for(features),
            "NN-1": warm_starts_from_predictions(nearest_one(train, features), model),
            "kNN-4 (served)": framework.engine.warm_starts_for(features),
            "train mean": warm_starts_from_predictions(train_mean(train, N_ROWS), model),
        }
        Pd = np.vstack([s.Pd for s in rows])
        Qd = np.vstack([s.Qd for s in rows])
        return {
            name: solve_opf_batch(case, Pd, Qd, warm_starts=warm, model=model)
            for name, warm in starts.items()
        }


def test_warm_start_corpus(corpus):
    mean = {name: float(np.mean([r.iterations for r in results])) for name, results in corpus.items()}
    print(f"\ncase118s corpus ({N_ROWS} rows): mean MIPS iterations, converged rows")
    for name, results in corpus.items():
        print(f"{name:>15} {mean[name]:>7.2f} {sum(r.success for r in results):>4}/{N_ROWS}")
    for name, results in corpus.items():
        assert all(r.success for r in results), name
        if name != "cold":
            assert mean[name] < mean["cold"], name
    assert mean["kNN-4 (served)"] <= mean["MTL"]
