"""Figure 4 — end-to-end speedup (a), iteration counts (b) and success rate (c).

For each benchmark system the trained Smart-PGSim model warm-starts every
validation problem; the bench prints the three series of Fig. 4 and checks the
qualitative claims: SU > 1 with no optimality loss, a large iteration-count
reduction, and a high warm-start success rate.
"""

import os

import pytest

from repro.opf import solve_opf

STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"


@pytest.fixture(scope="module")
def evaluations(frameworks):
    return {name: fw.online_evaluate() for name, fw in frameworks.items()}


def test_bench_fig4_series(benchmark, frameworks, evaluations):
    """Print the Fig. 4 series; benchmark one full online problem (inference + warm solve)."""
    fw = frameworks["case14"]
    dataset = fw.artifacts.validation_set

    def one_online_problem():
        warm = fw.artifacts.trainer.warm_start_for(dataset.inputs[0])
        return solve_opf(
            fw.case,
            warm_start=warm,
            Pd_mw=dataset.Pd_mw[0],
            Qd_mvar=dataset.Qd_mw[0],
            model=fw.opf_model,
        )

    result = benchmark(one_online_problem)
    assert result.success

    print("\nFigure 4 — MIPS vs Smart-PGSim")
    print(
        f"{'system':>8} {'SU':>6} {'SR %':>6} {'iters cold':>11} {'iters warm':>11} "
        f"{'iter ratio':>10} {'cost dev':>10}"
    )
    for name, ev in evaluations.items():
        print(
            f"{name:>8} {ev.speedup:>6.2f} {100 * ev.success_rate:>6.1f} "
            f"{ev.mean_iterations_cold:>11.1f} {ev.mean_iterations_warm:>11.1f} "
            f"{ev.iteration_ratio:>10.2f} {ev.mean_cost_deviation:>10.2e}"
        )

    for name, ev in evaluations.items():
        # Fig. 4a: the warm-started pipeline is faster end to end.  SU divides
        # the dataset's cold times (generation sweep, one wide lockstep batch)
        # by the validation sweep's warm ones (a narrower batch), a wall-clock
        # ratio across two widths, so like Fig. 7's it is strict-gated; the
        # iteration ratio below is the deterministic form of the claim.
        if STRICT:
            assert ev.speedup > 1.0
        # Fig. 4b: iterations drop sharply (paper reports 16-30 % of the cold count).
        assert ev.iteration_ratio < 0.6
        # Fig. 4c: high warm-start success rate.
        assert ev.success_rate >= 0.75
        # "Without losing solution optimality".
        assert ev.mean_cost_deviation < 1e-5


def test_bench_fig4_cold_solver_reference(benchmark, frameworks):
    """Benchmark the cold-start MIPS solve, the Fig. 4a reference bar."""
    fw = frameworks["case14"]
    dataset = fw.artifacts.validation_set
    result = benchmark(
        lambda: solve_opf(
            fw.case, Pd_mw=dataset.Pd_mw[0], Qd_mvar=dataset.Qd_mw[0], model=fw.opf_model
        )
    )
    assert result.success
