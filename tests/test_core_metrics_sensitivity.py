"""Tests of the evaluation metrics and the Table-I sensitivity tool."""

import numpy as np
import pytest

from repro.core import (
    BoxStats,
    COMBINATIONS,
    cost_loss,
    iteration_reduction,
    relative_error_summary,
    relative_errors,
    run_sensitivity_study,
    speedup_factor_sf,
    speedup_su,
    success_rate,
)


# ------------------------------------------------------------------------ metrics
def test_success_rate_basic():
    assert success_rate([True, True, False, True]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        success_rate([])


def test_speedup_su_formula():
    # Perfect success: SU = T / (t_mtl + t_warm).
    assert speedup_su(10.0, 1.0, 4.0, 1.0) == pytest.approx(2.0)
    # Failures add the restart cost T*(1-SR).
    assert speedup_su(10.0, 1.0, 4.0, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        speedup_su(10.0, 1.0, 4.0, 1.5)
    with pytest.raises(ValueError):
        speedup_su(0.0, 0.0, 0.0, 1.0)


def test_speedup_factor_sf():
    assert speedup_factor_sf([10, 20], [1, 2]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        speedup_factor_sf([1, 2], [1])
    with pytest.raises(ValueError):
        speedup_factor_sf([1.0], [0.0])


def test_cost_loss_percentage():
    assert cost_loss([100.0, 200.0], [101.0, 202.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cost_loss([], [])


def test_relative_errors_and_summary():
    err = relative_errors(np.array([1.1, 2.0]), np.array([1.0, 2.0]))
    assert err[0] == pytest.approx(0.1)
    stats = relative_error_summary(np.array([1.1, 2.0, 3.3]), np.array([1.0, 2.0, 3.0]))
    assert isinstance(stats, BoxStats)
    assert stats.minimum <= stats.q25 <= stats.median <= stats.q75 <= stats.maximum
    with pytest.raises(ValueError):
        BoxStats.from_values(np.array([]))


def test_iteration_reduction():
    assert iteration_reduction([20, 30], [5, 5]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        iteration_reduction([], [1])


# --------------------------------------------------------------- sensitivity study
def test_combinations_enumerate_all_16():
    assert len(COMBINATIONS) == 16
    assert (0, 0, 0, 0) in COMBINATIONS and (1, 1, 1, 1) in COMBINATIONS


@pytest.fixture(scope="module")
def sensitivity_report(case9_fixture):
    # A reduced study: 3 scenarios, 4 informative combinations.
    combos = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    return run_sensitivity_study(case9_fixture, n_scenarios=3, seed=11, combinations=combos)


def test_sensitivity_baseline_always_succeeds(sensitivity_report):
    baseline = sensitivity_report.row("0000")
    assert baseline.success_rate == pytest.approx(1.0)
    # SU is a ratio of single-shot wall times: only its sign is machine-independent.
    assert np.isfinite(baseline.speedup) and baseline.speedup > 0


def test_sensitivity_precise_x_succeeds(sensitivity_report):
    """Observation 1: a precise X alone keeps the success rate at 100 %."""
    assert sensitivity_report.row("1000").success_rate == pytest.approx(1.0)


def test_sensitivity_all_precise_is_fastest(sensitivity_report):
    """Observation 1/case XVI: all four signals together give the largest reduction.

    Judged on the deterministic iteration counts; the wall-clock SU is only
    checked for sign.
    """
    full = sensitivity_report.row("1111")
    assert full.success_rate == pytest.approx(1.0)
    assert full.mean_iterations < sensitivity_report.row("0000").mean_iterations
    assert full.mean_iterations < sensitivity_report.row("1000").mean_iterations
    assert np.isfinite(full.speedup) and full.speedup > 0


def test_sensitivity_z_without_mu_hurts(sensitivity_report):
    """Observation 2: a precise Z without a precise µ harms convergence."""
    z_only = sensitivity_report.row("0001")
    full = sensitivity_report.row("1111")
    assert z_only.success_rate <= full.success_rate
    assert z_only.mean_iterations >= full.mean_iterations


def test_sensitivity_report_table_format(sensitivity_report):
    table = sensitivity_report.as_table()
    assert len(table) == 4
    assert {"X", "lambda", "mu", "Z", "success_rate_pct", "speedup"} <= set(table[0])
    with pytest.raises(KeyError):
        sensitivity_report.row("0101")
