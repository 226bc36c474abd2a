"""Figure 6 — per-feature prediction accuracy of the warm-start point.

Beside the MTL's accuracy the module prints that of the engine's served
kNN-4 retrieval start and of the train-mean constant on the same split.
"""

import numpy as np

from repro.data import TASK_NAMES


def test_bench_fig6_prediction_accuracy(framework14):
    accuracy = framework14.prediction_accuracy()
    print("\nFigure 6 — normalised prediction vs ground truth (validation split)")
    print(f"{'task':>6} {'mean |err|':>11} {'p90 |err|':>10} {'corr':>6}")
    stats = {}
    for task in TASK_NAMES:
        pred = accuracy[task]["prediction"].ravel()
        truth = accuracy[task]["ground_truth"].ravel()
        err = np.abs(pred - truth)
        corr = np.corrcoef(pred, truth)[0, 1] if truth.std() > 1e-12 else 1.0
        stats[task] = (err.mean(), np.percentile(err, 90), corr)
        print(f"{task:>6} {err.mean():>11.4f} {np.percentile(err, 90):>10.4f} {corr:>6.3f}")

    # Main tasks hug the y = x diagonal (paper: "negligible accuracy lost" for
    # Va, Vm, Pg, Qg, µ and Z; λ shows the largest spread).  The thresholds are
    # loose because the figure model is trained on a small demo dataset —
    # raise ``N_SAMPLES`` / ``N_EPOCHS`` in ``conftest.py`` for paper-fidelity
    # accuracy.
    for task in ("Vm", "Pg"):
        assert stats[task][0] < 0.35
        assert np.isfinite(stats[task][2])


def test_bench_fig6_start_baselines(framework14, start_predictors):
    """Mean normalised error per task of the MTL, kNN-4 and train-mean starts."""
    dataset = framework14.artifacts.validation_set
    errors = {}
    for start, predict in start_predictors.items():
        pred = predict(framework14, dataset.inputs)
        errors[start] = {}
        for task in TASK_NAMES:
            truth = dataset.targets[task]
            span = max(truth.max() - truth.min(), 1e-12)
            errors[start][task] = float(np.abs(pred[task] - truth).mean() / span)
    print("\nFigure 6 — mean normalised |err| per start (validation split)")
    print(f"{'task':>6}" + "".join(f" {start:>11}" for start in errors))
    for task in TASK_NAMES:
        print(f"{task:>6}" + "".join(f" {errors[start][task]:>11.4f}" for start in errors))
    assert all(np.isfinite(v) for per_task in errors.values() for v in per_task.values())
