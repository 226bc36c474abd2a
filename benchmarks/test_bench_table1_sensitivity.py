"""Table I — sensitivity of success rate / speedup to the warm-start signals.

Runs the precise/imprecise ablation of Section V on the 9-bus system (all 16
combinations on a small scenario batch) and prints the table.  The key shape
properties of the paper's Table I are asserted: the all-default baseline and
the precise-X rows keep a 100 % success rate, the all-precise row is by far
the fastest, and a precise Z without a precise µ degrades convergence.
"""

import pytest

from repro.core import run_sensitivity_study
from repro.grid import get_case
from repro.opf import OPFModel, solve_opf


def test_bench_table1_sensitivity():
    report = run_sensitivity_study(get_case("case9"), n_scenarios=4, seed=1)

    print("\nTable I — warm-start signal ablation (case9, 4 scenarios)")
    print(f"{'X':>2} {'lam':>4} {'mu':>3} {'Z':>2} {'SR %':>6} {'SU':>6} {'iters':>6}")
    for row in report.as_table():
        su = "-" if row["speedup"] is None else f"{row['speedup']:.2f}"
        print(
            f"{row['X']:>2} {row['lambda']:>4} {row['mu']:>3} {row['Z']:>2} "
            f"{row['success_rate_pct']:>6.1f} {su:>6} {row['mean_iterations']:>6.1f}"
        )

    baseline = report.row("0000")
    precise_x = report.row("1000")
    all_precise = report.row("1111")
    z_only = report.row("0001")

    # Observation 1: precise X keeps the success rate at 100 %.
    assert baseline.success_rate == pytest.approx(1.0)
    assert precise_x.success_rate == pytest.approx(1.0)
    # Case XVI: all four signals together give the largest iteration reduction.
    assert all_precise.success_rate == pytest.approx(1.0)
    assert all_precise.mean_iterations < 0.5 * baseline.mean_iterations
    # Iteration counts are deterministic; assert the strong claim on them.
    assert all_precise.mean_iterations == min(r.mean_iterations for r in report.rows)
    # Observation 2: precise Z without precise µ does not help (and often hurts).
    assert z_only.mean_iterations >= all_precise.mean_iterations


def test_bench_table1_warm_vs_cold_solve():
    """The all-precise warm-started solve (the case XVI row) beats the cold one."""
    case = get_case("case9")
    model = OPFModel(case)
    cold = solve_opf(case, model=model)
    result = solve_opf(case, warm_start=cold.warm_start(), model=model)
    assert result.success
    assert result.iterations < cold.iterations
