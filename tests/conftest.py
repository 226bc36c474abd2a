"""Shared pytest fixtures.

Expensive artefacts (solved OPF cases, generated datasets, trained models) are
session-scoped so the full suite stays fast while still exercising the real
pipeline end to end.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running the suite from a source checkout without installation.
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np
import pytest

from repro.data import generate_dataset
from repro.grid import case9, case14, get_case
from repro.mtl import MTLTrainer, SmartPGSimMTL, TaskDimensions, fast_config
from repro.opf import OPFModel, solve_opf


@pytest.fixture(scope="session")
def case9_fixture():
    """The WSCC 9-bus case."""
    return case9()


@pytest.fixture(scope="session")
def case14_fixture():
    """The IEEE 14-bus case."""
    return case14()


@pytest.fixture(scope="session")
def case30s_fixture():
    """The synthetic 30-bus Table-II equivalent."""
    return get_case("case30s")


@pytest.fixture(scope="session")
def opf_model9(case9_fixture):
    """OPF model (admittances, indexing) for case9."""
    return OPFModel(case9_fixture)


@pytest.fixture(scope="session")
def opf_solution9(case9_fixture, opf_model9):
    """Converged cold-start OPF solution of case9."""
    result = solve_opf(case9_fixture, model=opf_model9)
    assert result.success
    return result


@pytest.fixture(scope="session")
def opf_solution14(case14_fixture):
    """Converged cold-start OPF solution of case14."""
    result = solve_opf(case14_fixture)
    assert result.success
    return result


@pytest.fixture(scope="session")
def dataset9(case9_fixture, opf_model9):
    """Small ground-truth dataset for case9 (24 scenarios)."""
    return generate_dataset(case9_fixture, 24, seed=123, model=opf_model9)


@pytest.fixture(scope="session")
def trained_trainer9(case9_fixture, opf_model9, dataset9):
    """An MTL model trained briefly on the case9 dataset."""
    train, _val = dataset9.split(0.8, seed=0)
    dims = TaskDimensions(
        n_bus=case9_fixture.n_bus,
        n_gen=case9_fixture.n_gen,
        n_eq=dataset9.task_dim("lam"),
        n_ineq=dataset9.task_dim("mu"),
    )
    config = fast_config(epochs=20)
    network = SmartPGSimMTL(dims, config, seed=0)
    trainer = MTLTrainer(network, train, opf_model9, config=config)
    trainer.train()
    return trainer


@pytest.fixture(scope="session")
def scalar_reference():
    """One scenario solved alone on its structurally outaged case.

    ``solve_opf`` of ``scenario.apply(case)``: outaged branches are removed
    from the network rather than zeroed as per-row data, so for outage rows
    this is a differently formulated problem on the same one-row lockstep
    path.  A tolerance reference (same iterations, objectives to solver
    precision) — never bitwise against a fleet row.
    """

    def solve(case, scenario, warm_start=None, options=None):
        return solve_opf(scenario.apply(case), warm_start=warm_start, options=options)

    return solve


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(12345)
