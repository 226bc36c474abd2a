"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper.  The
expensive artefacts (ground-truth datasets, trained models) are produced once
per session here and shared across modules.  Sample counts are deliberately
small so the whole harness runs in minutes on a laptop; scale them up via the
``REPRO_BENCH_SAMPLES`` environment variable for a higher-fidelity run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from repro.core import SmartPGSim, SmartPGSimConfig
from repro.grid import get_case
from repro.mtl import fast_config

#: Number of ground-truth samples per system (override with REPRO_BENCH_SAMPLES).
N_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "24"))
#: Training epochs for benchmark models (override with REPRO_BENCH_EPOCHS).
N_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "20"))

#: Where the machine-readable perf summary of a benchmark session is written:
#: under the git-ignored build directory, so running the tests never touches
#: the tracked ``BENCH_pr*.json`` files (the frozen historical record).
PERF_JSON_PATH = Path(__file__).resolve().parents[1] / ".bench_build" / "benchmarks" / "session.json"

#: Scalar perf findings recorded by the benchmark modules during the session
#: (wall times, speedups, solver phase breakdowns), keyed by benchmark name.
_PERF_RECORDS: dict = {}


def record_perf(name: str, **metrics) -> None:
    """Record scalar perf metrics under ``name`` for the session's perf JSON."""
    _PERF_RECORDS.setdefault(name, {}).update(
        {k: (float(v) if isinstance(v, (int, float)) else v) for k, v in metrics.items()}
    )


@pytest.fixture
def perf_recorder():
    """The :func:`record_perf` hook, as a fixture for benchmark modules."""
    return record_perf


def pytest_sessionfinish(session, exitstatus):
    """Write the session's perf summary to :data:`PERF_JSON_PATH`.

    Only written when at least one benchmark recorded metrics (running the
    unit-test suite alone leaves the file untouched).
    """
    if not _PERF_RECORDS:
        return
    PERF_JSON_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": "repro-perf-v1",
        "written_at_unix": time.time(),
        "config": {"bench_samples": N_SAMPLES, "bench_epochs": N_EPOCHS},
        "benchmarks": _PERF_RECORDS,
    }
    PERF_JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

#: The systems every per-system benchmark sweeps over.  ``case9``/``case14``
#: are exact IEEE data; the larger Table-II systems are synthetic equivalents
#: and are exercised by the Table II benchmark.
BENCH_SYSTEMS = ("case9", "case14")


def _make_framework(case_name: str, model_type: str = "mtl", use_physics: bool = True, seed: int = 0):
    case = get_case(case_name)
    config = SmartPGSimConfig(
        n_samples=N_SAMPLES,
        model_type=model_type,
        use_physics=use_physics,
        mtl=fast_config(epochs=N_EPOCHS),
        seed=seed,
    )
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
