"""Tests for the built-in case registry and the synthetic case generator."""

import numpy as np
import pytest

from repro.grid import (
    SyntheticGridConfig,
    generate_case,
    get_case,
    validate_case,
)
from repro.grid.synthetic import case30s, case57s


def test_get_case_unknown_name_raises():
    with pytest.raises(KeyError):
        get_case("case9999")


@pytest.mark.parametrize(
    "name, nb, ng, nl",
    [
        ("case30s", 30, 6, 41),
        ("case57s", 57, 7, 80),
        ("case118s", 118, 54, 185),
        ("case300s", 300, 69, 411),
    ],
)
def test_synthetic_cases_match_table2_counts(name, nb, ng, nl):
    case = get_case(name)
    assert case.n_bus == nb
    assert case.n_gen == ng
    assert case.n_branch == nl


def test_synthetic_cases_are_valid():
    for name in ("case30s", "case57s"):
        assert validate_case(get_case(name), raise_on_error=False) == []


def test_synthetic_generation_is_deterministic():
    a = case30s(seed=30)
    b = case30s(seed=30)
    assert np.allclose(a.branch.x, b.branch.x)
    assert np.allclose(a.bus.Pd, b.bus.Pd)
    assert np.allclose(a.gen.Pmax, b.gen.Pmax)


def test_synthetic_generation_varies_with_seed():
    a = case30s(seed=1)
    b = case30s(seed=2)
    assert not np.allclose(a.branch.x, b.branch.x)


def test_synthetic_capacity_exceeds_load():
    case = case57s()
    assert case.gen.Pmax[case.gen.status > 0].sum() > case.bus.Pd.sum() * 1.3


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticGridConfig(n_bus=2, n_gen=1, n_branch=1)
    with pytest.raises(ValueError):
        SyntheticGridConfig(n_bus=10, n_gen=11, n_branch=12)
    with pytest.raises(ValueError):
        SyntheticGridConfig(n_bus=10, n_gen=2, n_branch=5)  # fewer than nb-1 branches
    with pytest.raises(ValueError):
        SyntheticGridConfig(n_bus=10, n_gen=2, n_branch=12, load_factor=1.5)


def test_generate_case_custom_size():
    cfg = SyntheticGridConfig(n_bus=15, n_gen=4, n_branch=21, seed=7, name="custom15")
    case = generate_case(cfg)
    assert case.name == "custom15"
    assert case.n_bus == 15
    assert validate_case(case, raise_on_error=False) == []
    # Ratings were calibrated: every branch has a positive rating.
    assert np.all(case.branch.rate_a > 0)
