"""Figure 10 — convergence traces for good and bad initial points."""


from repro.core import capture_convergence_traces
from repro.grid import get_case


def test_bench_fig10_convergence_traces():
    traces = capture_convergence_traces(get_case("case9"), seed=7)

    print("\nFigure 10 — per-iteration convergence behaviour (case9)")
    for label, trace in traces.items():
        series = trace.series()
        print(
            f"{label:>8}: converged={trace.converged} iterations={trace.iterations} "
            f"final feas={series['feasibility'][-1]:.2e} final grad={series['gradient'][-1]:.2e} "
            f"max step={series['step_size'].max():.2e}"
        )

    good, bad, default = traces["good"], traces["bad"], traces["default"]
    # A good initial point converges, and in far fewer iterations than the default.
    assert good.converged
    assert default.converged
    assert good.iterations < default.iterations
    # Its feasibility/gradient/complementarity conditions all collapse below tolerance.
    for key in ("feasibility", "gradient", "complementarity"):
        assert good.series()[key][-1] < 1e-6
    # The bad initial point either fails outright or needs (much) more work, and
    # its step sizes are larger than the good trace's — the Fig. 10a observation.
    assert (not bad.converged) or bad.iterations > good.iterations
    assert bad.series()["step_size"].max() > good.series()["step_size"].max()


def test_bench_fig10_good_start_solve():
    """The warm-started (good initial point) solve itself converges."""
    from repro.opf import OPFModel, solve_opf

    case = get_case("case9")
    model = OPFModel(case)
    warm = solve_opf(case, model=model).warm_start()
    assert solve_opf(case, warm_start=warm, model=model).success
