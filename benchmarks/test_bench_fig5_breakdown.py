"""Figure 5 — runtime breakdown of MIPS vs Smart-PGSim."""

from repro.core import breakdown_from_evaluation


def test_bench_fig5_breakdown(frameworks):
    breakdowns = {
        name: breakdown_from_evaluation(fw.online_evaluate()) for name, fw in frameworks.items()
    }

    print("\nFigure 5 — normalised runtime breakdown (fractions of the MIPS-only total)")
    print(f"{'system':>8} {'preproc':>8} {'newton':>8} {'MTL inf':>8} {'restart':>8} {'total':>8}")
    for name, bd in breakdowns.items():
        norm = bd.normalized()
        print(
            f"{name:>8} {norm['preprocess']:>8.3f} {norm['newton_update']:>8.3f} "
            f"{norm['inference']:>8.3f} {norm['restart']:>8.3f} {norm['smart_pgsim_total']:>8.3f}"
        )

    # The measured MIPS component times behind the Newton-update bar, from the
    # per-iteration instrumentation (callback evaluation, KKT assembly,
    # factorisation, back-substitution).
    print("\nNewton-update components (fractions of the warm-solve time)")
    print(f"{'system':>8} {'eval':>8} {'assembly':>9} {'factor':>8} {'backsolve':>10}")
    for name, bd in breakdowns.items():
        frac = bd.newton_phase_fractions()
        print(
            f"{name:>8} {frac.get('eval', 0.0):>8.3f} {frac.get('assembly', 0.0):>9.3f} "
            f"{frac.get('factorization', 0.0):>8.3f} {frac.get('backsolve', 0.0):>10.3f}"
        )

    for name, bd in breakdowns.items():
        # The bars are wall-clock shares of ms-scale sections and are only
        # printed above.  The instrumented component times must be present and account for a
        # meaningful share of the warm solve (they exclude only Python-level
        # stepping overhead between phases).
        frac = bd.newton_phase_fractions()
        assert set(frac) >= {"eval", "assembly", "factorization", "backsolve"}
        assert 0.0 < sum(frac.values()) <= 1.0
