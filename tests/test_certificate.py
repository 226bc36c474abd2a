"""The KKT certificate accepts solver answers and rejects corrupted ones.

:func:`repro.opf.certify_opf` re-derives stationarity, feasibility,
complementarity and multiplier signs from a returned ``(x, λ, µ, z)`` through
the matrix-form OPF evaluation.  The parity suites assert it on every
converged row; this suite pins that it is not vacuous: each corruption below
breaks exactly the condition it targets, by orders of magnitude.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.opf import (
    CERTIFICATE_TOL,
    OPFModel,
    WarmStart,
    certify_opf,
    solve_opf_batch,
)

PAIR_118 = (4, 27)


@pytest.fixture(scope="module", params=["case9", "case14", "case118s"])
def solved(request):
    case = get_case(request.param)
    (sample,) = sample_loads(case, 1, variation=0.05, seed=21)
    (row,) = solve_opf_batch(case, sample.Pd[None], sample.Qd[None])
    assert row.success
    return case, row.warm_start(), sample.Pd, sample.Qd


def test_solver_answer_is_certified(solved):
    case, solution, Pd, Qd = solved
    certificate = certify_opf(case, solution, Pd, Qd)
    assert certificate.holds(), certificate
    # The converged point is a KKT point far inside the tolerance.
    assert certificate.stationarity < 1e-3 * CERTIFICATE_TOL
    assert certificate.feasibility < 1e-3 * CERTIFICATE_TOL


def _corrupt(solution: WarmStart, how: str) -> WarmStart:
    if how == "perturbed x":
        return replace(solution, x=solution.x + 1e-4)
    if how == "flipped λ":
        return replace(solution, lam=-solution.lam)
    if how == "negative µ":
        mu = solution.mu.copy()
        mu[np.argmin(mu)] *= -1.0
        return replace(solution, mu=mu)
    if how == "scaled µ":
        return replace(solution, mu=1.5 * solution.mu)
    raise ValueError(how)


@pytest.mark.parametrize("how", ["perturbed x", "flipped λ", "negative µ", "scaled µ"])
def test_corrupted_answer_is_rejected(solved, how):
    case, solution, Pd, Qd = solved
    certificate = certify_opf(case, _corrupt(solution, how), Pd, Qd)
    assert not certificate.holds(), certificate
    if how == "perturbed x":
        assert certificate.feasibility > 3 * CERTIFICATE_TOL
    elif how == "negative µ":
        # The smallest µ is tiny: only the sign check can see it.
        assert certificate.min_mu < 0.0
        assert certificate.stationarity < CERTIFICATE_TOL
    else:
        assert certificate.stationarity > 100 * CERTIFICATE_TOL


def test_violated_bound_is_infeasible(solved):
    """A voltage magnitude 0.01 p.u. above a (tightened) limit: power balance
    and stationarity still hold, only the inequality rows can tell."""
    case, solution, Pd, Qd = solved
    vm = solution.x[OPFModel(case).idx.vm]
    bus = int(np.argmax(vm - case.bus.Vmin))
    tightened = case.copy()
    tightened.bus.Vmax[bus] = vm[bus] - 0.01
    certificate = certify_opf(tightened, solution, Pd, Qd)
    assert certificate.feasibility > 100 * CERTIFICATE_TOL
    assert certificate.stationarity < CERTIFICATE_TOL
    assert not certificate.holds()


def test_complementarity_uses_recomputed_h_not_z(solved):
    """A slack that claims complementarity while ``h(x)`` says otherwise is
    caught: the certificate never reads ``z`` beyond its sign."""
    case, solution, Pd, Qd = solved
    for z in (np.full_like(solution.z, 1e-12), solution.z + 1e3):
        assert certify_opf(case, replace(solution, z=z), Pd, Qd).holds()
    inactive = np.argmax(solution.z)
    mu = solution.mu.copy()
    mu[inactive] = 1.0  # a sizeable multiplier on a far-from-active row
    bad = certify_opf(case, replace(solution, mu=mu), Pd, Qd)
    assert bad.complementarity > CERTIFICATE_TOL and not bad.holds()
    assert not certify_opf(case, replace(solution, z=-solution.z), Pd, Qd).holds()


def test_certificate_of_a_case_without_flow_rows():
    """A case whose ``rate_a`` are all zero poses no flow rows: its solve
    returns bound rows only and is certified on its own case, while the
    rated case's layout does not fit it."""
    rated = get_case("case9")  # every branch is rated
    case = rated.copy()
    case.branch.rate_a[:] = 0.0
    (sample,) = sample_loads(case, 1, variation=0.05, seed=23)
    (row,) = solve_opf_batch(case, sample.Pd[None], sample.Qd[None])
    assert row.success
    assert row.mu.size == OPFModel(case).batched.plan.partition.n_ineq
    assert OPFModel(case).n_ineq_nonlin == 0
    certificate = certify_opf(case, row, sample.Pd, sample.Qd)
    assert certificate.holds(), certificate
    with pytest.raises(ValueError, match="fit neither"):
        certify_opf(rated, row, sample.Pd, sample.Qd)


# ----------------------------------------------------------- outage layouts
@pytest.fixture(scope="module")
def n2_row():
    case = get_case("case118s")
    (sample,) = sample_loads(case, 1, variation=0.05, seed=22)
    (row,) = solve_opf_batch(case, sample.Pd[None], sample.Qd[None], outages=[PAIR_118])
    assert row.success
    return case, row.warm_start(), sample.Pd, sample.Qd


def test_slack_rows_of_an_outage_row_are_accepted(n2_row):
    case, solution, Pd, Qd = n2_row
    model = OPFModel(case)
    slack = np.flatnonzero(np.isin(np.tile(model.limited_branches, 2), PAIR_118))
    assert slack.size
    # µ ≈ 1e-8–1e-7 against z = Smax²: complementary to the solver's precision.
    assert np.all(solution.mu[slack] < 1e-6)
    assert certify_opf(case, solution, Pd, Qd, outages=PAIR_118).holds()
    # ... but a real multiplier on a zero-flow slack row is not.
    mu = solution.mu.copy()
    mu[slack] = 1.0
    assert not certify_opf(case, replace(solution, mu=mu), Pd, Qd, outages=PAIR_118).holds()


def test_outage_row_needs_its_outages(n2_row):
    """Certified against the intact network, the outage row is not a KKT point."""
    case, solution, Pd, Qd = n2_row
    assert not certify_opf(case, solution, Pd, Qd).holds()


def test_layout_mismatch_raises(n2_row):
    case, solution, Pd, Qd = n2_row
    short = replace(solution, mu=solution.mu[:-1], z=solution.z[:-1])
    with pytest.raises(ValueError, match="fit neither"):
        certify_opf(case, short, Pd, Qd, outages=PAIR_118)
    with pytest.raises(ValueError, match="µ/z of shapes"):
        certify_opf(case, replace(solution, z=solution.z[:-1]), Pd, Qd, outages=PAIR_118)
    with pytest.raises(ValueError, match="x of shape"):
        certify_opf(case, replace(solution, x=solution.x[:1]), Pd, Qd, outages=PAIR_118)
    with pytest.raises(ValueError, match="λ of size"):
        certify_opf(case, replace(solution, lam=solution.lam[:-1]), Pd, Qd, outages=PAIR_118)
    with pytest.raises(ValueError, match="out of range"):
        certify_opf(case, solution, Pd, Qd, outages=(case.n_branch,))
