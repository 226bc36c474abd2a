"""Predictor–corrector steps and the endgame, against the fixed-σ step they replace.

A row that enters ``mips_batch`` without warm ``µ`` / ``Z`` — cold, or with
only ``x`` and ``λ`` — takes Mehrotra predictor–corrector steps from a
centred entry at its objective's scale: ``γ₀ = max(Z0, ‖∇f(x₀)‖∞)`` at its
own ``x₀`` and ``µ = γ₀/z``, so ``z∘µ = γ₀`` on every inequality row.  A row
with warm ``µ`` or ``Z`` takes MATPOWER's entry and fixed-σ step.  Once a row
is feasible (``feascond`` below ``FEASTOL``) it takes predictor–corrector
steps with ``σ ≥ SIGMA_END`` for the rest of its solve: the endgame.  The
fixed-σ reference of a row is the same row inside
:func:`reference.steps.fixed_sigma`.

The suite is clock-free: it checks convergence, the KKT certificate and
iteration counts on cold rows of five cases and sixteen case118s N-2 pairs;
the rows the predictor–corrector step once failed (case300s batches and
single rows of four other cases), and as strict xfails the case30s rows the
endgame loses; the case30s corpora a full-step endgame trigger lost rows of; a full start from a row's own solution; the entry of
every kind of row; then the row contract of a batch that mixes warm, partial
and cold rows — each row is bitwise the row solved alone, the warm and
partial rows are bitwise their all-warm batch, and a subset or reordering
changes no bit.  Run with ``-s`` to see each case's two mean iteration
counts.
"""

import numpy as np
import pytest

import repro.mips.batch as batch_module
from reference.steps import fixed_sigma
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import FEASTOL, SIGMA, Z0, MIPSOptions
from repro.opf import OPFModel, WarmStart, certify_opf, solve_opf_batch

#: ``(case, load variation)`` of the intact corpus, 16 rows each.
CASES = (
    ("case9", 0.2),
    ("case14", 0.2),
    ("case30s", 0.1),
    ("case57s", 0.05),
    ("case118s", 0.05),
)
#: Connectivity-preserving case118s N-2 pairs, one load draw each.
N2_PAIRS = (
    (32, 73), (33, 82), (34, 116), (35, 123), (37, 75), (37, 76), (37, 155), (37, 156),
    (38, 64), (38, 177), (39, 143), (41, 97), (41, 130), (42, 132), (43, 109), (45, 118),
)
#: case118s's largest allowed ratio of the two mean iteration counts.
RATIO_118 = 0.6
#: Cold rows the predictor–corrector step failed from MATPOWER's entry
#: (``µ = Z0``), each solved alone: ``(case, rows drawn, load variation,
#: sample_loads seed, row, outage pair)``.  The case30s row failed only under
#: the fixed-σ step.
HARD_ROWS = (
    ("case57s", 128, 0.2, 10, 49, ()),
    ("case118s", 3, 0.05, 2035, 2, (37, 76)),
    ("case118s", 3, 0.05, 1016, 1, (49, 74)),
    ("case9", 16, 0.2, 29, 5, ()),
    ("case57s", 16, 0.05, 17, 2, ()),
    ("case30s", 16, 0.1, 23, 1, ()),
)
#: Cold case30s ±10 % rows (128 drawn per seed) that converged in 12–13
#: iterations before the endgame and that it loses: seed 10 row 10 and seed
#: 12 row 115 fail on a singular KKT system at iterations 21 and 45, seed
#: 11 row 79 retires ``infeasible`` at iteration 23.  Row 10 passes every
#: test but cost at iteration 12; then, at the 0.02 σ floor, ``compcond``
#: falls to 3e-12 while ``feascond`` climbs to 5e-4.  Pinned as strict
#: xfails until the endgame keeps them (ROADMAP item 19).
ENDGAME_LOST_ROWS = (
    ("case30s", 128, 0.1, 10, 10, ()),
    ("case30s", 128, 0.1, 11, 79, ()),
    ("case30s", 128, 0.1, 12, 115, ()),
)
#: Largest allowed mean iterations of a cold case300s batch.
MEAN_300 = 20
#: ``(load variation, sample_loads seed)`` of the case30s corpora, 128 rows
#: each: an endgame triggered by a full step with a 0.01 σ floor lost a row
#: of the first, and a ``feascond`` trigger with a 0.01 floor one of the
#: second.
CORPORA_30 = ((0.05, 10), (0.2, 10))


def _loads(case, n, variation, seed):
    samples = sample_loads(case, n, variation=variation, seed=seed)
    return np.array([s.Pd for s in samples]), np.array([s.Qd for s in samples])


def _both_rules(case, Pd, Qd, outages=None):
    model = OPFModel(case)
    cold = solve_opf_batch(case, Pd, Qd, model=model, outages=outages)
    with fixed_sigma():
        fixed = solve_opf_batch(case, Pd, Qd, model=model, outages=outages)
    return cold, fixed


def _assert_certified(case, rows, Pd, Qd, outages):
    for i, row in enumerate(rows):
        assert row.success, (i, row.message)
        certificate = certify_opf(case, row, Pd[i], Qd[i], outages=outages[i])
        assert certificate.holds(), (i, certificate)


def _compare(label, case, Pd, Qd, outages=None):
    cold, fixed = _both_rules(case, Pd, Qd, outages)
    every = outages or [()] * len(Pd)
    _assert_certified(case, cold, Pd, Qd, every)
    _assert_certified(case, fixed, Pd, Qd, every)
    means = [float(np.mean([r.iterations for r in rows])) for rows in (cold, fixed)]
    print(f"{label}: predictor-corrector {means[0]:.2f}, fixed sigma {means[1]:.2f} "
          f"mean iterations ({means[0] / means[1]:.2f}x)")
    return means


@pytest.mark.parametrize("name, variation", CASES)
def test_cold_rows_converge_and_certify_under_both_rules(name, variation):
    case = get_case(name)
    Pd, Qd = _loads(case, 16, variation, seed=12345)
    cold_mean, fixed_mean = _compare(f"{name} ±{variation:.0%}", case, Pd, Qd)
    if name == "case118s":
        assert cold_mean <= RATIO_118 * fixed_mean


def test_n2_rows_converge_and_certify_under_both_rules():
    case = get_case("case118s")
    Pd, Qd = _loads(case, len(N2_PAIRS), 0.05, seed=7)
    cold_mean, fixed_mean = _compare("case118s N-2", case, Pd, Qd, outages=list(N2_PAIRS))
    assert cold_mean <= RATIO_118 * fixed_mean


@pytest.mark.parametrize("variation, seed", [(0.05, 1), (0.2, 3)])
def test_cold_case300s_rows_converge_and_certify(variation, seed):
    """The paper's largest system: sixteen cold rows in one batch."""
    case = get_case("case300s")
    Pd, Qd = _loads(case, 16, variation, seed)
    rows = solve_opf_batch(case, Pd, Qd, model=OPFModel(case))
    _assert_certified(case, rows, Pd, Qd, [()] * len(rows))
    assert np.mean([r.iterations for r in rows]) <= MEAN_300


@pytest.mark.parametrize(
    "name, n, variation, seed, row, outage",
    [
        *HARD_ROWS,
        *(
            pytest.param(*lost, marks=pytest.mark.xfail(strict=True, reason="lost to the endgame"))
            for lost in ENDGAME_LOST_ROWS
        ),
    ],
    ids=[f"{c}-{v:.0%}-seed{s}-row{r}" for c, _, v, s, r, _ in HARD_ROWS + ENDGAME_LOST_ROWS],
)
def test_hard_cold_row_converges_and_certifies(name, n, variation, seed, row, outage):
    """A row alone is bitwise the same row in its batch, so each is solved
    alone."""
    case = get_case(name)
    Pd, Qd = _loads(case, n, variation, seed)
    Pd, Qd = Pd[row : row + 1], Qd[row : row + 1]
    rows = solve_opf_batch(case, Pd, Qd, model=OPFModel(case), outages=[outage])
    _assert_certified(case, rows, Pd, Qd, [outage])


@pytest.mark.parametrize("variation, seed", CORPORA_30)
def test_case30s_corpus_converges_and_certifies(variation, seed):
    case = get_case("case30s")
    Pd, Qd = _loads(case, 128, variation, seed)
    rows = solve_opf_batch(case, Pd, Qd, model=OPFModel(case))
    _assert_certified(case, rows, Pd, Qd, [()] * len(rows))


def test_full_start_from_its_own_solution_takes_two_iterations():
    """A row started from its own converged ``x``, ``λ``, ``µ`` and ``Z`` is
    feasible after one fixed-σ step, and its endgame step finishes it."""
    case = get_case("case118s")
    model = OPFModel(case)
    Pd, Qd = _loads(case, 8, 0.05, seed=4)
    own = solve_opf_batch(case, Pd, Qd, model=model)
    starts = [WarmStart(x=r.x, lam=r.lam, mu=r.mu, z=r.z) for r in own]
    rows = solve_opf_batch(case, Pd, Qd, model=model, warm_starts=starts)
    _assert_certified(case, rows, Pd, Qd, [()] * len(rows))
    assert max(r.iterations for r in rows) <= 2


def test_cold_row_records_its_centring_target():
    """A cold row's ``IterationRecord.gamma`` is the ``σµ`` its step aimed
    at, with ``σ ∈ [SIGMA, 1]`` of the entry's ``µ``; a fixed-σ row records
    ``SIGMA`` times the ``µ`` its step reached."""
    case = get_case("case14")
    model = OPFModel(case)
    niq = model.batched.plan.partition.n_ineq
    Pd, Qd = case.bus.Pd[None, :], case.bus.Qd[None, :]
    (cold,) = solve_opf_batch(case, Pd, Qd, model=model)
    with fixed_sigma():
        (fixed,) = solve_opf_batch(case, Pd, Qd, model=model)
    x0 = np.clip(model.default_start(), model.batched.plan.xmin, model.batched.plan.xmax)
    mu0 = cold.history[0].compcond * (1.0 + np.abs(x0).max()) / niq
    assert SIGMA * mu0 * (1 - 1e-12) <= cold.history[1].gamma <= mu0 * (1 + 1e-12)
    assert fixed.history[-1].gamma == pytest.approx(SIGMA * fixed.mu @ fixed.z / niq, rel=1e-12)


# ------------------------------------------------------------ the row contract
@pytest.fixture(scope="module")
def mixed118():
    """Six case118s rows — a full warm start, a partial (x + λ) one and none,
    twice each, the starts taken from solutions of other load draws — and
    their one batch solve."""
    case = get_case("case118s")
    model = OPFModel(case)
    Pd, Qd = _loads(case, 8, 0.05, seed=3)
    donors = solve_opf_batch(case, Pd[6:], Qd[6:], model=model)
    full = [WarmStart(x=d.x, lam=d.lam, mu=d.mu, z=d.z) for d in donors]
    partial = [WarmStart(x=d.x, lam=d.lam) for d in donors]
    starts = [full[0], partial[0], None, full[1], None, partial[1]]
    batch = solve_opf_batch(case, Pd[:6], Qd[:6], model=model, warm_starts=starts)
    return case, model, Pd[:6], Qd[:6], starts, batch


def _entry(case, model, Pd, Qd, starts):
    """The state each row enters its first iteration with — ``z``, ``µ``,
    ``γ`` and ``h(x₀)`` — captured from the KKT solve of a one-iteration
    solve."""
    captured = []
    solve = batch_module._Centring.solve

    def capturing(self, solver, data_plane):
        captured.append((self._z.copy(), self._mu.copy(), self._gamma.copy(), self._H.copy()))
        return solve(self, solver, data_plane)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_module._Centring, "solve", capturing)
        solve_opf_batch(case, Pd, Qd, model=model, warm_starts=starts,
                        options=MIPSOptions(max_it=1))
    return captured[0]


def test_cold_rows_enter_centred_at_the_objective_scale(mixed118):
    """A cold row enters with ``γ₀ = max(Z0, ‖∇f(x₀)‖∞)``, ``z = max(Z0, −h(x₀))``
    and ``µ = γ₀/z``; its iteration-0 record carries ``γ₀``."""
    case, model, Pd, Qd, starts, batch = mixed118
    cold = [i for i, s in enumerate(starts) if s is None]
    z, mu, gamma, H = _entry(case, model, Pd, Qd, starts)
    plan = model.batched.plan
    x0 = np.clip(model.default_start(), plan.xmin, plan.xmax)
    gamma0 = max(Z0, np.abs(model.batched.objective(x0[None, :])[1]).max())
    assert gamma0 > 1e3 * Z0
    for i in cold:
        assert gamma[i] == gamma0
        assert batch[i].history[0].gamma == gamma0
        assert np.array_equal(z[i], np.maximum(Z0, -H[i]))
        np.testing.assert_allclose(z[i] * mu[i], gamma0, rtol=1e-15, atol=0)


def test_warm_rows_keep_matpower_entry(mixed118):
    """Warm duals keep MATPOWER's entry: the (floored) warm ``µ``/``Z`` and
    ``γ = SIGMA·zᵀµ/niq``.  A row with only ``x``, or ``x`` and ``λ``,
    enters centred like a cold row, at its own ``x₀``: ``z = max(Z0,
    −h(x₀))`` and ``z∘µ = γ₀ = max(Z0, ‖∇f(x₀)‖∞)``."""
    case, model, Pd, Qd, starts, _ = mixed118
    x_only = [WarmStart(x=s.x) for s in (starts[0], starts[3])]
    rows = [0, 1, 3, 5, 0, 3]
    starts = [starts[i] for i in rows[:4]] + x_only
    z, mu, gamma, H = _entry(case, model, Pd[rows], Qd[rows], starts)
    plan = model.batched.plan
    niq = plan.partition.n_ineq
    for i, start in enumerate(starts):
        if start.mu is None:
            x0 = np.clip(start.x, plan.xmin, plan.xmax)
            gamma0 = max(Z0, np.abs(model.batched.objective(x0[None, :])[1]).max())
            assert gamma[i] == gamma0 > 1e3 * Z0, i
            assert np.array_equal(z[i], np.maximum(Z0, -H[i])), i
            np.testing.assert_allclose(z[i] * mu[i], gamma0, rtol=1e-15, atol=0)
        else:
            warm = start.clipped_duals()
            assert np.array_equal(z[i], np.maximum(warm.z, 1e-10)), i
            assert np.array_equal(mu[i], np.maximum(warm.mu, 1e-10)), i
            zmu = np.einsum("ij,ij->i", z[i : i + 1], mu[i : i + 1])[0]
            assert gamma[i] == max(SIGMA * zmu / niq, 1e-12), i


def _bits(row):
    return (row.iterations, row.objective.hex(), row.success) + tuple(
        getattr(row, name).tobytes() for name in ("x", "lam", "mu", "z")
    )


def test_mixed_rows_are_bitwise_their_solo_and_all_warm_solves(mixed118):
    case, model, Pd, Qd, starts, batch = mixed118
    assert all(row.success for row in batch)
    for i, row in enumerate(batch):
        (alone,) = solve_opf_batch(case, Pd[i : i + 1], Qd[i : i + 1], model=model,
                                   warm_starts=[starts[i]])
        assert _bits(row) == _bits(alone), i
    warm = [i for i, s in enumerate(starts) if s is not None]
    all_warm = solve_opf_batch(case, Pd[warm], Qd[warm], model=model,
                               warm_starts=[starts[i] for i in warm])
    for i, row in zip(warm, all_warm):
        assert _bits(batch[i]) == _bits(row), i


@pytest.mark.parametrize("rows", [(5, 4, 3, 2, 1, 0), (2, 4, 1)], ids=["reversed", "subset"])
def test_subsets_with_cold_rows_change_no_bit(mixed118, rows):
    case, model, Pd, Qd, starts, full = mixed118
    rows = list(rows)
    part = solve_opf_batch(
        case, Pd[rows], Qd[rows], model=model, warm_starts=[starts[i] for i in rows]
    )
    assert [_bits(full[i]) for i in rows] == [_bits(b) for b in part]


def _endgame_iterations(row):
    """Iterations a row took after the first one that left it feasible."""
    feasible = [r.iteration for r in row.history[1:] if r.feascond < FEASTOL]
    return row.iterations - feasible[0] if feasible else 0


def test_corrector_solves_count_predictor_corrector_rows():
    """Every predictor–corrector row-iteration back-substitutes a second
    right-hand side on its predictor's factor: each of a cold row's, and each
    endgame iteration of a full start.  Fixed-σ rows never do."""
    case = get_case("case14")
    model = OPFModel(case)
    Pd, Qd = _loads(case, 8, 0.2, seed=5)
    cold = solve_opf_batch(case, Pd, Qd, model=model)
    donors = solve_opf_batch(case, Pd[::-1], Qd[::-1], model=model)
    full = solve_opf_batch(
        case, Pd, Qd, model=model,
        warm_starts=[WarmStart(x=d.x, lam=d.lam, mu=d.mu, z=d.z) for d in donors],
    )
    with fixed_sigma():
        fixed = solve_opf_batch(case, Pd, Qd, model=model)
    for rows, pc_iterations in (
        (cold, sum(r.iterations for r in cold)),
        (full, sum(_endgame_iterations(r) for r in full)),
    ):
        last = max(rows, key=lambda r: r.iterations)
        assert last.kkt_telemetry["corrector_solves"] >= pc_iterations > 0
    assert all(r.kkt_telemetry["corrector_solves"] == 0 for r in fixed)
