"""Integration tests of the Smart-PGSim framework, baselines, breakdown and traces."""

import numpy as np
import pytest

from repro.core import (
    DirectPredictionBaseline,
    SmartPGSim,
    SmartPGSimConfig,
    breakdown_from_evaluation,
    capture_convergence_traces,
)
from repro.data import TASK_NAMES
from repro.mtl import fast_config


@pytest.fixture(scope="module")
def framework9(case9_fixture, dataset9):
    """Framework trained on the shared case9 dataset (reused to keep tests fast)."""
    config = SmartPGSimConfig(n_samples=dataset9.n_samples, mtl=fast_config(epochs=20), seed=0)
    fw = SmartPGSim(case9_fixture, config)
    fw.offline(dataset=dataset9)
    return fw


@pytest.fixture(scope="module")
def evaluation9(framework9):
    return framework9.online_evaluate()


# ----------------------------------------------------------------------- framework
def test_config_validation():
    with pytest.raises(ValueError):
        SmartPGSimConfig(model_type="bogus")
    with pytest.raises(ValueError):
        SmartPGSimConfig(n_samples=2)
    with pytest.raises(ValueError):
        SmartPGSimConfig(train_fraction=1.2)


def test_offline_artifacts_populated(framework9):
    art = framework9.artifacts
    assert art is not None
    assert art.train_set.n_samples + art.validation_set.n_samples == art.dataset.n_samples
    assert art.history.final_loss < art.history.epochs[0].total_loss
    assert art.training_seconds > 0


def test_online_requires_offline(case9_fixture):
    fw = SmartPGSim(case9_fixture)
    with pytest.raises(RuntimeError):
        fw.online_evaluate()


def test_online_evaluation_metrics(evaluation9):
    assert evaluation9.n_problems > 0
    assert 0.0 <= evaluation9.success_rate <= 1.0
    # The trained warm start must beat the cold start.  SU divides the
    # dataset's cold times (generation sweep, lockstep width 24) by this
    # sweep's warm ones (width ~5), so which side of 1 it lands on depends on
    # the two widths; the iteration counts below are the deterministic verdict.
    assert np.isfinite(evaluation9.speedup) and evaluation9.speedup > 0
    assert evaluation9.iteration_ratio < 0.7
    assert evaluation9.mean_iterations_warm < evaluation9.mean_iterations_cold


def test_online_preserves_optimality(evaluation9):
    """Warm-started solutions match the cold-start optimum (no optimality loss)."""
    assert evaluation9.mean_cost_deviation < 1e-6


def test_online_records_are_consistent(evaluation9):
    for record in evaluation9.records:
        assert record.cold_solve_seconds > 0
        assert record.inference_seconds >= 0
        if record.used_fallback:
            assert record.restart_seconds > 0
        else:
            assert record.restart_seconds == 0.0


def test_online_max_problems_limit(framework9):
    limited = framework9.online_evaluate(max_problems=2)
    assert limited.n_problems == 2


def test_prediction_accuracy_structure(framework9):
    acc = framework9.prediction_accuracy()
    assert set(acc) == set(TASK_NAMES)
    for task, pair in acc.items():
        assert pair["prediction"].shape == pair["ground_truth"].shape
        assert pair["ground_truth"].min() >= -1e-9
        assert pair["ground_truth"].max() <= 1 + 1e-9


def test_prediction_accuracy_main_tasks_close_to_diagonal(framework9):
    """Fig. 6: main-task predictions hug the y = x line."""
    acc = framework9.prediction_accuracy()
    for task in ("Vm", "Pg"):
        diff = np.abs(acc[task]["prediction"] - acc[task]["ground_truth"])
        assert float(np.median(diff)) < 0.2


def test_separate_model_framework_runs(case9_fixture, dataset9):
    config = SmartPGSimConfig(
        n_samples=dataset9.n_samples,
        model_type="separate",
        use_physics=False,
        mtl=fast_config(epochs=6),
        seed=1,
    )
    fw = SmartPGSim(case9_fixture, config)
    fw.offline(dataset=dataset9)
    ev = fw.online_evaluate(max_problems=3)
    assert ev.n_problems == 3


# ------------------------------------------------------------------------ breakdown
def test_breakdown_normalisation(evaluation9):
    breakdown = breakdown_from_evaluation(evaluation9)
    norm = breakdown.normalized()
    assert norm["smart_pgsim_total"] == pytest.approx(
        norm["preprocess"] + norm["newton_update"] + norm["inference"] + norm["restart"]
    )
    # Which total is smaller is the same cross-width clock comparison as SU
    # (see test_online_evaluation_metrics); the phase sums are exact.
    totals = evaluation9.total_times()
    assert breakdown.smart_total == pytest.approx(
        0.05 * totals["cold_solve"]
        + totals["warm_solve"]
        + totals["inference"]
        + totals["restart"]
    )
    assert breakdown.mips_total == pytest.approx(1.05 * totals["cold_solve"])


def test_breakdown_requires_records(evaluation9):
    from repro.core.framework import OnlineEvaluation

    with pytest.raises(ValueError):
        breakdown_from_evaluation(OnlineEvaluation(case_name="empty"))


# ------------------------------------------------------------------------ baselines
def test_direct_prediction_baseline(framework9):
    baseline = DirectPredictionBaseline(framework9.artifacts.trainer, framework9.opf_model)
    report = baseline.evaluate(framework9.artifacts.validation_set)
    # Table III's SF divides the dataset's cold solve cost (an additive share
    # of a wide lockstep generation sweep) by a live single-row inference
    # timing: a ratio of two clocks at two widths, so only its sign is
    # asserted; the quality-gap asserts below are deterministic.
    assert report.speedup_factor > 0
    # ...but the direct solution is not exactly optimal (non-zero cost loss)
    # and not exactly feasible (non-zero balance violation), which motivates
    # the warm-start design.
    assert report.cost_loss_pct >= 0
    assert report.feasibility_violation > 0
    summary = report.summary()
    assert set(summary) == {"SF", "Lcost_pct", "max_balance_violation_pu"}


# ----------------------------------------------------------------------- convergence
def test_convergence_traces_shapes(case9_fixture):
    traces = capture_convergence_traces(case9_fixture, seed=5)
    assert set(traces) == {"default", "good", "bad"}
    for trace in traces.values():
        series = trace.series()
        assert set(series) == {"step_size", "feasibility", "gradient", "complementarity", "cost"}
        assert len(series["step_size"]) == len(trace.history)


def test_convergence_good_start_needs_fewer_iterations(case9_fixture):
    traces = capture_convergence_traces(case9_fixture, seed=5)
    assert traces["good"].converged
    assert traces["default"].converged
    assert traces["good"].iterations < traces["default"].iterations


def test_convergence_good_trace_feasibility_decreases(case9_fixture):
    traces = capture_convergence_traces(case9_fixture, seed=5)
    feas = traces["good"].series()["feasibility"]
    assert feas[-1] < 1e-6
