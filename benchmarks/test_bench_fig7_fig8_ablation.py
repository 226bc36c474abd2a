"""Figures 7 and 8 — separate NNs vs plain MTL vs Smart-PGSim (physics).

Trains the three model variants on the same case9 dataset and compares
end-to-end speedup, success rate (Fig. 7) and the distribution of prediction
errors (Fig. 8 box statistics).
"""

import numpy as np
import pytest

from repro.core.metrics import relative_error_summary


@pytest.fixture(scope="module")
def variant_evaluations(ablation_variants):
    return {name: fw.online_evaluate() for name, fw in ablation_variants.items()}


def test_bench_fig7_speedup_and_success(variant_evaluations):
    print("\nFigure 7 — model-variant comparison (case9)")
    print(f"{'variant':>14} {'SU':>6} {'SR %':>6} {'iter ratio':>10}")
    for name, ev in variant_evaluations.items():
        print(
            f"{name:>14} {ev.speedup:>6.2f} {100 * ev.success_rate:>6.1f} "
            f"{ev.iteration_ratio:>10.2f}"
        )

    smart_ev = variant_evaluations["Smart-PGSim"]
    sep_ev = variant_evaluations["Sep models"]
    # The full Smart-PGSim pipeline is at least as successful as the
    # separate-networks baseline (deterministic: iteration counts, not wall).
    assert smart_ev.success_rate >= sep_ev.success_rate - 1e-9


def test_bench_fig8_relative_error_boxes(ablation_variants):
    boxes = {}
    for name, fw in ablation_variants.items():
        dataset = fw.artifacts.validation_set
        pred = fw.artifacts.trainer.predict_physical(dataset.inputs)
        pooled_pred = np.concatenate([pred[t].ravel() for t in ("Va", "Vm", "Pg", "Qg")])
        pooled_truth = np.concatenate(
            [dataset.targets[t].ravel() for t in ("Va", "Vm", "Pg", "Qg")]
        )
        boxes[name] = relative_error_summary(pooled_pred, pooled_truth)

    print("\nFigure 8 — relative prediction error of the primal tasks (box statistics)")
    print(f"{'variant':>14} {'q25':>9} {'median':>9} {'q75':>9} {'mean':>9}")
    for name, stats in boxes.items():
        print(
            f"{name:>14} {stats.q25:>9.2e} {stats.median:>9.2e} {stats.q75:>9.2e} {stats.mean:>9.2e}"
        )

    # Box statistics are well formed and the errors stay small in absolute
    # terms; the paper's ordering (Smart-PGSim tightest) emerges with the full
    # 10,000-sample training runs (see EXPERIMENTS.md).
    for stats in boxes.values():
        assert stats.q25 <= stats.median <= stats.q75
        assert stats.median < 0.25
    assert np.isfinite(boxes["Smart-PGSim"].mean)
