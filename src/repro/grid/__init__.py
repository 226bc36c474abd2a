"""Power-grid data model, built-in test systems and load sampling."""

from repro.grid.components import (
    PQ,
    PV,
    REF,
    ISOLATED,
    POLYNOMIAL,
    PW_LINEAR,
    BranchTable,
    BusTable,
    Case,
    GenCostTable,
    GenTable,
)
from repro.grid.cases import case9, case14, get_case
from repro.grid.io import case_from_matpower
from repro.grid.perturb import (
    LoadSample,
    sample_loads,
)
from repro.grid.synthetic import SyntheticGridConfig, generate_case
from repro.grid.validation import CaseValidationError, validate_case

__all__ = [
    "PQ",
    "PV",
    "REF",
    "ISOLATED",
    "POLYNOMIAL",
    "PW_LINEAR",
    "BusTable",
    "GenTable",
    "BranchTable",
    "GenCostTable",
    "Case",
    "case9",
    "case14",
    "get_case",
    "case_from_matpower",
    "LoadSample",
    "sample_loads",
    "SyntheticGridConfig",
    "generate_case",
    "CaseValidationError",
    "validate_case",
]
