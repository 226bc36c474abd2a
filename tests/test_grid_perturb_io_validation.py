"""Tests for load sampling, MATPOWER round-tripping and case validation."""

import numpy as np
import pytest

from reference.matpower_io import case_to_matpower
from repro.grid import (
    CaseValidationError,
    case_from_matpower,
    sample_loads,
    validate_case,
)
from repro.grid.components import REF


# ---------------------------------------------------------------- load sampling
def test_sample_loads_within_variation(case14_fixture):
    samples = sample_loads(case14_fixture, 50, variation=0.1, seed=1)
    assert len(samples) == 50
    Pd0 = case14_fixture.bus.Pd
    for s in samples:
        nonzero = Pd0 > 0
        assert np.all(s.Pd[nonzero] >= 0.9 * Pd0[nonzero] - 1e-12)
        assert np.all(s.Pd[nonzero] <= 1.1 * Pd0[nonzero] + 1e-12)
        assert np.all(s.Pd[~nonzero] == 0.0)


def test_sample_loads_reproducible_with_seed(case9_fixture):
    a = sample_loads(case9_fixture, 5, seed=42)
    b = sample_loads(case9_fixture, 5, seed=42)
    for sa, sb in zip(a, b):
        assert np.allclose(sa.Pd, sb.Pd)
        assert np.allclose(sa.Qd, sb.Qd)


def test_sample_loads_negative_count_raises(case9_fixture):
    with pytest.raises(ValueError):
        sample_loads(case9_fixture, -1)


def test_variation_outside_unit_interval_raises(case9_fixture):
    """Above 1 a factor ``1 - variation`` goes negative: a load becomes an
    injection.  The call raises before it draws anything from the stream."""
    for variation in (1.5, -0.1):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="variation"):
            sample_loads(case9_fixture, 4, variation=variation, seed=rng)
        assert rng.bit_generator.state == before
    for s in sample_loads(case9_fixture, 200, variation=1.0, seed=0):
        assert np.all(s.Pd >= 0.0) and np.all(s.Qd * np.sign(case9_fixture.bus.Qd) >= 0.0)


def test_load_sample_apply_and_features(case9_fixture):
    sample = sample_loads(case9_fixture, 1, seed=0)[0]
    applied = sample.apply(case9_fixture)
    assert np.allclose(applied.bus.Pd, sample.Pd)
    feats = sample.feature_vector()
    assert feats.shape == (2 * case9_fixture.n_bus,)
    assert np.allclose(feats[: case9_fixture.n_bus], sample.Pd)


# ----------------------------------------------------------- MATPOWER round trip
def test_case_matpower_roundtrip(case14_fixture):
    rows = case_to_matpower(case14_fixture)
    rebuilt = case_from_matpower(
        case14_fixture.name,
        rows["baseMVA"][0][0],
        rows["bus"],
        rows["gen"],
        rows["branch"],
        rows["gencost"],
    )
    assert np.allclose(rebuilt.bus.Pd, case14_fixture.bus.Pd)
    assert np.allclose(rebuilt.branch.x, case14_fixture.branch.x)
    assert np.allclose(rebuilt.gen.Pmax, case14_fixture.gen.Pmax)
    assert np.allclose(rebuilt.gencost.coeffs, case14_fixture.gencost.coeffs)


def test_case_from_matpower_rejects_short_rows():
    with pytest.raises(ValueError):
        case_from_matpower("bad", 100.0, [[1, 3, 0]], [[1] * 10], [[1, 2] + [0] * 9], [[2, 0, 0, 2, 1, 0]])


# ------------------------------------------------------------------- validation
def test_validate_accepts_builtin_cases(case9_fixture, case14_fixture):
    assert validate_case(case9_fixture, raise_on_error=False) == []
    assert validate_case(case14_fixture, raise_on_error=False) == []


def test_validation_detects_missing_reference(case9_fixture):
    broken = case9_fixture.copy()
    broken.bus.bus_type[broken.bus.bus_type == REF] = 2
    problems = validate_case(broken, raise_on_error=False)
    assert any("reference" in p for p in problems)
    with pytest.raises(CaseValidationError):
        validate_case(broken)


def test_validation_detects_disconnected_network(case9_fixture):
    broken = case9_fixture.copy()
    # Removing every branch at bus 9 (index 8) isolates it.
    mask = (broken.branch.f_bus == 9) | (broken.branch.t_bus == 9)
    broken.branch.status[mask] = 0
    problems = validate_case(broken, raise_on_error=False)
    assert any("not connected" in p for p in problems)


def test_validation_detects_bad_generator_bounds(case9_fixture):
    broken = case9_fixture.copy()
    broken.gen.Pmin[0] = broken.gen.Pmax[0] + 10
    problems = validate_case(broken, raise_on_error=False)
    assert any("Pmax" in p for p in problems)


def test_validation_detects_unknown_gen_bus(case9_fixture):
    broken = case9_fixture.copy()
    broken.gen.bus[0] = 999
    problems = validate_case(broken, raise_on_error=False)
    assert any("unknown bus" in p for p in problems)


def test_validation_detects_zero_impedance_branch(case9_fixture):
    broken = case9_fixture.copy()
    broken.branch.r[0] = 0.0
    broken.branch.x[0] = 0.0
    problems = validate_case(broken, raise_on_error=False)
    assert any("zero series impedance" in p for p in problems)


def test_validation_detects_bad_voltage_limits(case9_fixture):
    broken = case9_fixture.copy()
    broken.bus.Vmin[2] = 1.2
    broken.bus.Vmax[2] = 1.0
    problems = validate_case(broken, raise_on_error=False)
    assert any("Vmax" in p for p in problems)
