"""Branch-element AC-OPF kernels against the scalar matrix-form reference.

:class:`~repro.opf.batch.BatchedOPFModel` evaluates the power balance, the
flow limits and every first and second derivative per branch end and adds
the element values into fixed templates.  The scalar
:class:`~repro.opf.model.OPFModel` callbacks build the same quantities from
the admittance matrices (``Ybus``/``Yf``/``Yt`` products), sharing no code
with the element path — so they are an independent reference:

* at random states and multipliers the planes agree with the matrices at
  1e-12 relative on case9, case14 and case118s;
* a row with branch outages agrees with the *structurally* outaged model on
  the intact pattern: entries the outaged network lacks are exactly zero,
  the outaged rated branches' flow rows are slack rows (``h = −Smax²``, zero
  Jacobian) and their multipliers leave the Hessian untouched;
* a row's values do not depend on its neighbours in the batch, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import get_case
from repro.opf import BatchedOPFModel, OPFModel
from repro.opf.constraints import constraint_function
from reference.opf_hessian import lagrangian_hessian
from repro.parallel import Scenario
from reference.sparse import csr_from_template

RTOL = 1e-12

#: Connectivity-preserving N-2 pairs of case118s whose AC-OPF is solvable.
PAIRS_118 = ((4, 27), (7, 32), (10, 36))


def _dense(template, row):
    return csr_from_template(template, row).toarray()


def _assert_close(got, ref, what):
    scale = max(1.0, float(np.max(np.abs(ref)))) if np.size(ref) else 1.0
    err = float(np.max(np.abs(got - ref))) if np.size(ref) else 0.0
    assert err <= RTOL * scale, f"{what}: max error {err:.3e} (scale {scale:.3e})"


def _random_point(case, model, batch, seed):
    rng = np.random.default_rng(seed)
    x0 = model.default_start()
    X = x0 + 0.05 * rng.standard_normal((batch, x0.size))
    Pd = case.bus.Pd * (1.0 + 0.1 * rng.standard_normal((batch, case.n_bus)))
    Qd = case.bus.Qd * (1.0 + 0.1 * rng.standard_normal((batch, case.n_bus)))
    lam = rng.standard_normal((batch, 2 * case.n_bus))
    mu = np.abs(rng.standard_normal((batch, model.n_ineq_nonlin)))
    return X, Pd, Qd, lam, mu


@pytest.mark.parametrize("case_name", ["case9", "case14", "case118s"])
def test_element_planes_match_matrix_form(case_name):
    case = get_case(case_name)
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    X, Pd, Qd, lam, mu = _random_point(case, model, 3, seed=1)
    G, H, Jg, Jh = batched.constraints(X, Pd / case.base_mva, Qd / case.base_mva)
    Hd = batched.hessian(X, lam, mu)
    for b in range(X.shape[0]):
        g, h, Jg_ref, Jh_ref = constraint_function(model, Pd[b], Qd[b])(X[b])
        _assert_close(G[b], g, "G")
        _assert_close(H[b], h, "H")
        _assert_close(_dense(batched.jg_template, Jg[b]), Jg_ref.toarray(), "Jg")
        _assert_close(_dense(batched.jh_template, Jh[b]), Jh_ref.toarray(), "Jh")
        H_ref = lagrangian_hessian(model, X[b], lam[b], mu[b]).toarray()
        _assert_close(_dense(batched.hess_template, Hd[b]), H_ref, "Hessian")


def _outage_rows(case_name):
    if case_name == "case118s":
        return [(), PAIRS_118[0], PAIRS_118[1], (PAIRS_118[2][0],)]
    if case_name == "case14":
        return [(), (2, 9), (6,), (3, 12)]
    return [(), (4,), (7,), ()]  # case9: N-1 only (every N-2 pair islands a bus)


@pytest.mark.parametrize("case_name", ["case9", "case14", "case118s"])
def test_outage_rows_match_structural_model_on_shared_pattern(case_name):
    case = get_case(case_name)
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    outages = _outage_rows(case_name)
    X, Pd, Qd, lam, mu = _random_point(case, model, len(outages), seed=2)
    mask = batched.in_service(outages)
    G, H, Jg, Jh = batched.constraints(X, Pd / case.base_mva, Qd / case.base_mva, mask)
    Hd = batched.hessian(X, lam, mu, in_service=mask)

    lim = model.limited_branches
    for b, branches in enumerate(outages):
        outaged = Scenario(b, Pd[b], Qd[b], outage_branches=branches).apply(case)
        ref_model = OPFModel(outaged)
        # Flow rows the structural model keeps, in its own row order.
        kept = np.flatnonzero(np.isin(lim, ref_model.limited_branches))
        kept_rows = np.concatenate([kept, lim.size + kept])
        slack_rows = np.setdiff1d(np.arange(2 * lim.size), kept_rows)
        assert slack_rows.size == 2 * np.count_nonzero(np.isin(lim, branches))

        g, h, Jg_ref, Jh_ref = constraint_function(ref_model, Pd[b], Qd[b])(X[b])
        _assert_close(G[b], g, "G")
        _assert_close(H[b, kept_rows], h, "H")
        np.testing.assert_array_equal(H[b, slack_rows], -np.tile(model.flow_limit_sq, 2)[slack_rows])
        jg = _dense(batched.jg_template, Jg[b])
        _assert_close(jg, Jg_ref.toarray(), "Jg")
        jh = _dense(batched.jh_template, Jh[b])
        _assert_close(jh[kept_rows], Jh_ref.toarray(), "Jh")
        assert np.all(jh[slack_rows] == 0.0)

        # µ of slack rows is random and nonzero: it must not reach the Hessian.
        H_ref = lagrangian_hessian(ref_model, X[b], lam[b], mu[b, kept_rows])
        _assert_close(_dense(batched.hess_template, Hd[b]), H_ref.toarray(), "Hessian")

        # Entries of the intact pattern the outaged network lacks are exactly 0.
        for plane, template, ref in (
            (Jg[b], batched.jg_template, Jg_ref),
            (Hd[b], batched.hess_template, H_ref),
        ):
            lacks = _dense(template, np.ones(template.nnz)) != 0
            stored = ref.tocoo()
            lacks[stored.row, stored.col] = False
            assert lacks.any() == bool(branches)
            assert np.all(_dense(template, plane)[lacks] == 0.0)


@pytest.mark.parametrize("case_name", ["case14", "case118s"])
def test_element_rows_independent_of_batch_bitwise(case_name):
    """A row's planes are the same bits alone, in a batch, and with a mask."""
    case = get_case(case_name)
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    outages = _outage_rows(case_name) * 4
    X, Pd, Qd, lam, mu = _random_point(case, model, len(outages), seed=3)
    mask = batched.in_service(outages)
    Pp, Qp = Pd / case.base_mva, Qd / case.base_mva
    together = batched.constraints(X, Pp, Qp, mask) + (
        batched.hessian(X, lam, mu, mask),
    )
    for b, branches in enumerate(outages):
        row = slice(b, b + 1)
        alone_mask = batched.in_service([branches])
        alone = batched.constraints(X[row], Pp[row], Qp[row], alone_mask) + (
            batched.hessian(X[row], lam[row], mu[row], alone_mask),
        )
        if not branches:
            assert alone_mask is None  # intact rows alone take the unmasked path
        for got, ref in zip(alone, together):
            assert np.array_equal(got[0], ref[b])


def test_in_service_rejects_out_of_range_indices():
    batched = BatchedOPFModel(OPFModel(get_case("case9")))
    with pytest.raises(ValueError, match="out of range"):
        batched.in_service([(), (9,)])
    with pytest.raises(ValueError, match="out of range"):
        batched.in_service([(-1,)])
    assert batched.in_service([(), ()]) is None
