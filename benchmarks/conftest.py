"""Shared fixtures for the paper-figure suite.

Each module regenerates one table or figure of the paper.  The expensive
artefacts (ground-truth datasets, trained models) are produced once per
session here and shared across modules.  Sample counts are deliberately small
so the whole suite runs in well under a minute; nothing here is timed.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np
import pytest

from repro.core import SmartPGSim, SmartPGSimConfig
from repro.grid import get_case
from repro.mtl import fast_config

#: Number of ground-truth samples per system.
N_SAMPLES = 24
#: Training epochs for the figure models.
N_EPOCHS = 20

def _make_framework(case_name: str):
    """Smart-PGSim (MTL + physics) trained on ``case_name``."""
    case = get_case(case_name)
    config = SmartPGSimConfig(n_samples=N_SAMPLES, mtl=fast_config(epochs=N_EPOCHS))
    framework = SmartPGSim(case, config)
    framework.offline()
    return framework


@pytest.fixture(scope="session")
def framework9():
    """Smart-PGSim (MTL + physics) trained on case9."""
    return _make_framework("case9")


@pytest.fixture(scope="session")
def framework14():
    """Smart-PGSim (MTL + physics) trained on case14."""
    return _make_framework("case14")


@pytest.fixture(scope="session")
def frameworks(framework9, framework14):
    """Mapping of benchmark systems to their trained frameworks."""
    return {"case9": framework9, "case14": framework14}


@pytest.fixture(scope="session")
def ablation_variants(framework9):
    """The three Fig. 7 / Fig. 8 variants on case9: separate NNs, plain MTL, Smart-PGSim."""
    dataset = framework9.artifacts.dataset
    separate = SmartPGSim(
        framework9.case,
        SmartPGSimConfig(
            n_samples=dataset.n_samples,
            model_type="separate",
            use_physics=False,
            mtl=fast_config(epochs=N_EPOCHS),
            seed=1,
        ),
    )
    separate.offline(dataset=dataset)
    mtl_plain = SmartPGSim(
        framework9.case,
        SmartPGSimConfig(
            n_samples=dataset.n_samples,
            model_type="mtl",
            use_physics=False,
            mtl=fast_config(epochs=N_EPOCHS),
            seed=1,
        ),
    )
    mtl_plain.offline(dataset=dataset)
    return {"Sep models": separate, "MTL": mtl_plain, "Smart-PGSim": framework9}


def _train_mean(framework, inputs_pu):
    """The mean training solution, the same start for every row."""
    n_rows = np.atleast_2d(inputs_pu).shape[0]
    return {
        task: np.repeat(values.mean(axis=0, keepdims=True), n_rows, axis=0)
        for task, values in framework.artifacts.train_set.targets.items()
    }


@pytest.fixture(scope="session")
def start_predictors():
    """Per-task start predictions ``(framework, inputs_pu) -> {task: rows}``:
    the paper's MTL, the engine's served kNN-4 retrieval start and the
    train-mean constant, printed side by side by the figure modules."""
    return {
        "MTL": lambda fw, inputs_pu: fw.artifacts.trainer.predict_physical(inputs_pu),
        "kNN-4": lambda fw, inputs_pu: fw.engine.predict_physical(inputs_pu),
        "train mean": _train_mean,
    }
