"""Parity suite: the lockstep batched solver, row by row.

``mips_batch`` must agree with the one-row solve scenario by scenario — the
random same-structure QPs against ``qps_mips`` to solver precision, and every
AC-OPF row of a warm-/cold-started sweep bit for bit against the same
scenario solved alone, each converged row a KKT point by the independent
certificate (:func:`repro.opf.certify_opf`).  Mixed batches, where
individual scenarios retire early or fall through to the recovery policy,
are covered too.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.grid import get_case
from repro.grid.perturb import sample_loads
from reference.qp import qps_mips
from repro.mips import LockstepPlan, MIPSOptions, mips_batch
from repro.opf import (
    BatchedOPFModel,
    OPFModel,
    WarmStart,
    certify_opf,
    solve_opf,
    solve_opf_batch,
)
from repro.opf.constraints import constraint_function
from reference.opf_hessian import lagrangian_hessian
from repro.parallel import SolverFleet, generate_scenarios
from reference.kkt import kkt_solve
from reference.steps import fixed_sigma
from reference.sparse import csr_from_template


def _dense(template, data_row):
    return np.asarray(csr_from_template(template, data_row).todense())


def _dense_qp_plan(nx, neq, niq, xmin=None, xmax=None):
    """The lockstep plan of a QP batch with fully dense constraint rows."""
    return LockstepPlan(
        nx,
        sp.csr_matrix(np.ones((neq, nx))),
        sp.csr_matrix(np.ones((niq, nx))),
        sp.csr_matrix(np.ones((nx, nx))),
        xmin,
        xmax,
    )


# ------------------------------------------------------------------ random QPs
def _random_qp_batch(batch=5, nx=6, neq=2, niq=3, seed=0):
    """Same-structure convex QPs with fully dense (but per-scenario) data."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))
    xmin = np.full(nx, -5.0)
    xmax = np.full(nx, 5.0)
    return H, c, Aeq, beq, Ain, bin_, xmin, xmax


def test_qp_batch_matches_scalar():
    batch = 5
    H, c, Aeq, beq, Ain, bin_, xmin, xmax = _random_qp_batch(batch=batch)
    nx, neq, niq = c.shape[1], beq.shape[1], bin_.shape[1]

    def f_fcn(X, idx):
        Ha = H[idx]
        F = 0.5 * np.einsum("bi,bij,bj->b", X, Ha, X) + np.einsum("bi,bi->b", c[idx], X)
        dF = np.einsum("bij,bj->bi", Ha, X) + c[idx]
        return F, dF

    def gh_fcn(X, idx):
        G = np.einsum("bij,bj->bi", Aeq[idx], X) - beq[idx]
        Hc = np.einsum("bij,bj->bi", Ain[idx], X) - bin_[idx]
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, idx):
        return H[idx].reshape(idx.size, -1)

    results = mips_batch(
        f_fcn,
        np.zeros((batch, nx)),
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        plan=_dense_qp_plan(nx, neq, niq, xmin, xmax),
    )
    assert len(results) == batch
    for b, result in enumerate(results):
        ref = qps_mips(
            H[b], c[b], A_eq=Aeq[b], b_eq=beq[b], A_in=Ain[b], b_in=bin_[b],
            xmin=xmin, xmax=xmax,
        )
        assert ref.converged and result.converged
        assert result.iterations == ref.iterations
        assert result.f == pytest.approx(ref.f, abs=1e-8, rel=1e-8)
        np.testing.assert_allclose(result.x, ref.x, atol=1e-8)
        np.testing.assert_allclose(result.lam, ref.lam, atol=1e-6)
        np.testing.assert_allclose(result.mu, ref.mu, atol=1e-6)
        np.testing.assert_allclose(result.z, ref.z, atol=1e-6)
        assert result.phase_seconds["factorization"] >= 0.0
        assert len(result.history) == result.iterations + 1


def test_mips_batch_validates_inputs():
    plan = LockstepPlan(3, None, None, sp.csr_matrix((3, 3)))

    def objective(X, idx):
        return np.zeros(1), np.zeros((1, 3))

    with pytest.raises(ValueError, match="hess_fcn"):
        mips_batch(objective, np.zeros((2, 3)), plan=plan)
    with pytest.raises(ValueError, match="(B, nx)"):
        mips_batch(objective, np.zeros(3), hess_fcn=lambda *a: np.zeros((1, 0)), plan=plan)
    with pytest.raises(TypeError, match="plan"):
        mips_batch(objective, np.zeros((1, 3)), hess_fcn=lambda *a: np.zeros((1, 0)))
    with pytest.raises(ValueError, match="different width"):
        mips_batch(objective, np.zeros((1, 4)), hess_fcn=lambda *a: np.zeros((1, 0)), plan=plan)


# -------------------------------------------------------- batched OPF kernels
def test_batched_opf_model_matches_scalar_evaluation():
    """Jacobian/Hessian data planes reproduce the scalar matrices exactly."""
    case = get_case("case14")
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    rng = np.random.default_rng(2)
    batch = 4
    x0 = model.default_start()
    X = x0 + 0.05 * rng.standard_normal((batch, x0.size))
    samples = sample_loads(case, batch, variation=0.1, seed=9)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])

    F, dF = batched.objective(X)
    G, H, Jg_data, Jh_data = batched.constraints(X, Pd / case.base_mva, Qd / case.base_mva)
    lam = rng.standard_normal((batch, 2 * case.n_bus))
    mu = np.abs(rng.standard_normal((batch, model.n_ineq_nonlin)))
    Hdata = batched.hessian(X, lam, mu)

    scalar_model = OPFModel(case)
    from repro.opf.costs import objective as scalar_objective

    for b in range(batch):
        f_ref, df_ref, _ = scalar_objective(scalar_model, X[b])
        assert F[b] == pytest.approx(f_ref, rel=1e-12)
        np.testing.assert_allclose(dF[b], df_ref, atol=1e-12)
        gh = constraint_function(scalar_model, Pd[b], Qd[b])
        g_ref, h_ref, Jg_ref, Jh_ref = gh(X[b])
        np.testing.assert_allclose(G[b], g_ref, atol=1e-12)
        np.testing.assert_allclose(H[b], h_ref, atol=1e-12)
        np.testing.assert_allclose(
            _dense(batched.jg_template, Jg_data[b]), np.asarray(Jg_ref.todense()), atol=1e-12
        )
        np.testing.assert_allclose(
            _dense(batched.jh_template, Jh_data[b]), np.asarray(Jh_ref.todense()), atol=1e-12
        )
        H_ref = lagrangian_hessian(scalar_model, X[b], lam[b], mu[b])
        np.testing.assert_allclose(
            _dense(batched.hess_template, Hdata[b]), np.asarray(H_ref.todense()), atol=1e-10
        )


# ------------------------------------------------------------- OPF sweep parity
def _assert_rows_alone_and_certified(case, batch_results, alone_results, Pd, Qd):
    """Each converged lockstep row is bitwise the scenario solved alone (the
    one-row ``solve_opf``) and passes the KKT certificate."""
    for i, (got, ref) in enumerate(zip(batch_results, alone_results)):
        assert got.success == ref.success
        if ref.success:
            assert got.iterations == ref.iterations
            assert got.objective == ref.objective
            for name in ("x", "lam", "mu", "z"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
            certificate = certify_opf(case, got, Pd[i], Qd[i])
            assert certificate.holds(), (i, certificate)


@pytest.mark.parametrize("case_name", ["case9", "case14"])
def test_cold_sweep_parity(case_name):
    case = get_case(case_name)
    samples = sample_loads(case, 4, variation=0.08, seed=3)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    model = OPFModel(case)
    batch = solve_opf_batch(case, Pd, Qd, model=model)
    alone = [
        solve_opf(case, Pd_mw=Pd[i], Qd_mvar=Qd[i], model=OPFModel(case))
        for i in range(Pd.shape[0])
    ]
    assert all(r.success for r in alone)
    _assert_rows_alone_and_certified(case, batch, alone, Pd, Qd)


@pytest.mark.parametrize("case_name", ["case9", "case14"])
def test_warm_sweep_parity(case_name):
    case = get_case(case_name)
    samples = sample_loads(case, 4, variation=0.06, seed=5)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    model = OPFModel(case)
    base = [
        solve_opf(case, Pd_mw=Pd[i], Qd_mvar=Qd[i], model=model) for i in range(Pd.shape[0])
    ]
    warms = [r.warm_start() for r in base]
    # Nudge the loads so the warm starts are near-optimal but not exact.
    Pd2 = Pd * (1.0 + 0.01 * np.linspace(-1.0, 1.0, Pd.shape[0]))[:, None]
    batch = solve_opf_batch(case, Pd2, Qd, warm_starts=warms, model=model)
    alone = [
        solve_opf(case, warm_start=warms[i], Pd_mw=Pd2[i], Qd_mvar=Qd[i], model=model)
        for i in range(Pd.shape[0])
    ]
    _assert_rows_alone_and_certified(case, batch, alone, Pd2, Qd)
    # Warm starts must actually help (the whole point of the engine).
    assert max(r.iterations for r in batch) <= max(r.iterations for r in base)


def test_mixed_batch_with_cold_warm_and_divergent():
    """Scenarios retire individually; a diverging member cannot poison the rest."""
    case = get_case("case9")
    model = OPFModel(case)
    nominal = solve_opf(case, model=model)
    warm = nominal.warm_start()
    Pd = np.stack([case.bus.Pd * 1.02, case.bus.Pd, case.bus.Pd * 15.0])
    Qd = np.stack([case.bus.Qd * 1.02, case.bus.Qd, case.bus.Qd * 15.0])
    options = MIPSOptions(max_it=40)
    batch = solve_opf_batch(
        case, Pd, Qd, warm_starts=[None, warm, None], options=options, model=model
    )
    alone = [
        solve_opf(
            case,
            warm_start=[None, warm, None][i],
            Pd_mw=Pd[i],
            Qd_mvar=Qd[i],
            options=options,
            model=model,
        )
        for i in range(3)
    ]
    # Converged members are the scenarios solved alone, bit for bit.
    assert batch[0].success and batch[1].success
    _assert_rows_alone_and_certified(case, batch, alone, Pd, Qd)
    # The absurd-load member fails in the batch and alone, with the same story.
    assert not batch[2].success and not alone[2].success
    assert batch[2].message == alone[2].message != "converged"
    assert batch[2].iterations == alone[2].iterations
    # Retirement: the warm member finished in fewer iterations than the cold.
    assert batch[1].iterations < batch[0].iterations


# ----------------------------------------------------------- fleet integration
def test_fleet_sweep_matches_scalar_solves(scalar_reference):
    """Fleet rows (outages as per-row data) against one-row solves of the
    structurally outaged cases, every fleet solution certified."""
    case = get_case("case14")
    scenarios = generate_scenarios(
        case, 8, variation=0.08, contingency_fraction=0.4, seed=5
    )
    assert any(s.outage_branches for s in scenarios)
    with SolverFleet(case) as fleet:
        sweep = fleet.solve(scenarios, solutions=True)
    assert sweep.n_scenarios == len(scenarios)
    for scenario, b in zip(scenarios, sweep.outcomes):
        a = scalar_reference(case, scenario)
        assert scenario.scenario_id == b.scenario_id
        assert a.success == b.success
        if a.success:
            assert a.iterations == b.iterations
            assert a.objective == pytest.approx(b.objective, rel=1e-8)
            assert certify_opf(
                case, b.solution, scenario.Pd, scenario.Qd, outages=scenario.outage_branches
            ).holds()


def test_fleet_batch_mode_fallback_recovers_failures():
    """A poisoned warm start fails in the lockstep batch and is recovered."""
    case = get_case("case9")
    scenarios = generate_scenarios(case, 3, variation=0.05, seed=7)
    model = OPFModel(case)
    good = solve_opf(case, model=model).warm_start()
    # A wildly infeasible primal point makes the warm solve explode quickly.
    poisoned = WarmStart(x=good.x * 200.0, lam=good.lam, mu=good.mu, z=good.z)
    warms = [good, poisoned, good]
    with SolverFleet(case) as fleet:
        sweep = fleet.solve(scenarios, warms)
    poisoned_outcome = sweep.outcomes[1]
    assert not poisoned_outcome.success
    assert poisoned_outcome.used_fallback and poisoned_outcome.fallback_success
    assert poisoned_outcome.converged
    assert poisoned_outcome.iterations_fallback > 0
    # The healthy members were solved warm, no fallback.
    assert sweep.outcomes[0].success and not sweep.outcomes[0].used_fallback
    assert sweep.success_rate == 1.0


# ------------------------------------------------ batch-mode singular KKT paths
def _singular_slot_qp(batch=3, nx=5, neq=2, niq=2, seed=4, consistent=True, rows=None):
    """Same-structure QP batch whose middle slot has rank-deficient equalities.

    Duplicating slot 1's equality rows makes its KKT system exactly singular
    at every iteration; with identical right-hand sides the system stays
    *consistent* (the regularised solve is accepted by the residual check),
    with different right-hand sides it becomes contradictory and the solve
    must fail cleanly.  ``rows`` keeps only those slots of the batch (the
    same problems, solved in a narrower batch).
    """
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Aeq[1, 1] = Aeq[1, 0]
    beq[1, 1] = beq[1, 0] if consistent else beq[1, 0] + 1.0
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))
    if rows is not None:
        H, c, Aeq, beq, Ain, bin_ = (a[rows] for a in (H, c, Aeq, beq, Ain, bin_))

    # Row-wise loops (not batched einsum), so a row's callback values do not
    # depend on which other rows share the call.
    def f_fcn(X, idx):
        F = np.array([0.5 * x @ H[j] @ x + c[j] @ x for x, j in zip(X, idx)])
        dF = np.stack([H[j] @ x + c[j] for x, j in zip(X, idx)])
        return F, dF

    def gh_fcn(X, idx):
        G = np.stack([Aeq[j] @ x - beq[j] for x, j in zip(X, idx)])
        Hc = np.stack([Ain[j] @ x - bin_[j] for x, j in zip(X, idx)])
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, idx):
        return H[idx].reshape(idx.size, -1)

    kwargs = dict(gh_fcn=gh_fcn, hess_fcn=hess_fcn, plan=_dense_qp_plan(nx, neq, niq))
    return f_fcn, np.zeros((c.shape[0], nx)), kwargs


@pytest.mark.parametrize("backend", ["factorized", "ldl"])
def test_batch_singular_slot_recovered_by_regularization(backend):
    """A rank-deficient (but consistent) slot converges via the diagonal
    regularisation retry on both backends, and the recovery count is
    surfaced on exactly that scenario's result."""
    f_fcn, x0, kwargs = _singular_slot_qp()
    with kkt_solve(backend), fixed_sigma():
        results = mips_batch(f_fcn, x0, **kwargs)
    assert all(r.converged for r in results)
    assert results[1].kkt_regularizations > 0
    assert results[0].kkt_regularizations == 0
    assert results[2].kkt_regularizations == 0


def test_batch_singular_slot_neighbours_bit_unaffected():
    """Regularising one slot must not leak into its neighbours.

    Row isolation, shown directly on both backends: every scenario of the
    batch — the healthy neighbours and the regularised slot itself — lands on
    the very bits it lands on when solved alone at width 1, recovery count
    included.
    """
    for backend in ("factorized", "ldl"):
        with kkt_solve(backend), fixed_sigma():
            f_fcn, x0, kwargs = _singular_slot_qp()
            batched = mips_batch(f_fcn, x0, **kwargs)
            alones = []
            for b in range(len(batched)):
                f_fcn, x0, kwargs = _singular_slot_qp(rows=[b])
                alones += mips_batch(f_fcn, x0, **kwargs)
        assert batched[1].kkt_regularizations > 0
        for got, alone in zip(batched, alones):
            assert got.iterations == alone.iterations
            assert got.kkt_regularizations == alone.kkt_regularizations
            np.testing.assert_array_equal(got.x, alone.x)
            np.testing.assert_array_equal(got.lam, alone.lam)
            np.testing.assert_array_equal(got.mu, alone.mu)
            np.testing.assert_array_equal(got.z, alone.z)


@pytest.mark.parametrize("backend", ["factorized", "ldl"])
def test_batch_inconsistent_singular_slot_fails_cleanly(backend):
    """An *inconsistent* singular slot is rejected by the residual check and
    classified as a singular-KKT failure; its neighbours still converge."""
    f_fcn, x0, kwargs = _singular_slot_qp(consistent=False)
    with kkt_solve(backend), fixed_sigma():
        results = mips_batch(f_fcn, x0, **kwargs)
    assert not results[1].converged
    assert "singular KKT" in results[1].message
    # Failed recoveries are not counted (the counter reports accepted ones).
    assert results[1].kkt_regularizations == 0
    assert results[0].converged and results[2].converged


#: Row layout of the failure-path batch: how each row is made to fail.
_FAILURE_MODES = (
    "healthy", "singular", "nonfinite_step", "healthy", "exploded_step",
    "nonfinite_iterate", "diverged_iterate", "healthy",
)


def _failure_qp(rows=None, nx=5, neq=2, niq=2, seed=6):
    """Free (unbounded) QP batch whose callbacks drive rows to each failure.

    * ``singular`` — duplicated, contradictory equality rows: the KKT
      system is singular and inconsistent from iteration 1;
    * ``nonfinite_step`` / ``exploded_step`` — the gradient of the second
      evaluation (after iteration 1's step) is shifted by ``inf`` / ``1e14``,
      so iteration 2's Newton step is non-finite / far beyond
      ``MAX_STEPSIZE``;
    * ``nonfinite_iterate`` — ``x0`` holds a NaN the callbacks read as 0,
      so every step is finite but the iterate never is;
    * ``diverged_iterate`` — the QP is translated by ``2e10`` along ``x₀``
      and started at its translated origin: small steps, iterate norm beyond
      ``MAX_STEPSIZE``.

    Callbacks loop row by row and count evaluations per row, so a row sees
    the same calls whichever rows share its batch.  ``rows`` keeps only
    those rows (the same problems, solved in a narrower batch).
    """
    batch = len(_FAILURE_MODES)
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))
    x0 = np.zeros((batch, nx))
    offset = np.zeros((batch, nx))
    shift = np.zeros((batch, nx))
    for r, mode in enumerate(_FAILURE_MODES):
        if mode == "singular":
            Aeq[r, 1] = Aeq[r, 0]
            beq[r, 1] = beq[r, 0] + 1.0
        elif mode == "nonfinite_step":
            shift[r] = np.inf
        elif mode == "exploded_step":
            shift[r] = 1e14
        elif mode == "nonfinite_iterate":
            x0[r, 0] = np.nan
        elif mode == "diverged_iterate":
            offset[r, 0] = x0[r, 0] = 2e10
    if rows is not None:
        H, c, Aeq, beq, Ain, bin_, x0, offset, shift = (
            a[rows] for a in (H, c, Aeq, beq, Ain, bin_, x0, offset, shift)
        )
    evaluations = np.zeros(x0.shape[0], dtype=int)

    def view(x, j):
        return np.nan_to_num(x - offset[j])

    def f_fcn(X, idx):
        F, dF = [], []
        for x, j in zip(X, idx):
            y = view(x, j)
            evaluations[j] += 1
            F.append(0.5 * y @ H[j] @ y + c[j] @ y)
            dF.append(H[j] @ y + c[j] + (shift[j] if evaluations[j] == 2 else 0.0))
        return np.array(F), np.stack(dF)

    def gh_fcn(X, idx):
        G = np.stack([Aeq[j] @ view(x, j) - beq[j] for x, j in zip(X, idx)])
        Hc = np.stack([Ain[j] @ view(x, j) - bin_[j] for x, j in zip(X, idx)])
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, idx):
        return H[idx].reshape(idx.size, -1)

    kwargs = dict(gh_fcn=gh_fcn, hess_fcn=hess_fcn, plan=_dense_qp_plan(nx, neq, niq))
    return f_fcn, x0, kwargs


@pytest.mark.parametrize("backend", ["factorized", "ldl"])
def test_each_failure_message_retires_only_its_row(backend):
    """Five failure classes in one lockstep batch, healthy rows between them.

    Each failing row gets its own message at the iteration it failed; every
    healthy row converges on the bits it reaches alone at width 1.  ``ldl``
    lists any non-finite solution row as failed, so on it a non-finite step
    reads as a singular KKT system.
    """
    expected = {
        "singular": ("numerically failed (singular KKT system)", 1),
        "nonfinite_step": (
            "numerically failed (non-finite Newton step)"
            if backend == "factorized"
            else "numerically failed (singular KKT system)",
            2,
        ),
        "exploded_step": ("numerically failed (step size exploded)", 2),
        "nonfinite_iterate": ("numerically failed (non-finite iterate)", 1),
        "diverged_iterate": ("numerically failed (iterate diverged)", 1),
    }
    f_fcn, x0, kwargs = _failure_qp()
    with kkt_solve(backend):
        results = mips_batch(f_fcn, x0, **kwargs)
    assert len(results) == len(_FAILURE_MODES)
    for b, (mode, got) in enumerate(zip(_FAILURE_MODES, results)):
        if mode != "healthy":
            assert (got.message, got.iterations) == expected[mode], mode
            assert not got.converged and got.kkt_regularizations == 0
            continue
        assert got.converged
        f_fcn, x0, kwargs = _failure_qp(rows=[b])
        with kkt_solve(backend):
            (alone,) = mips_batch(f_fcn, x0, **kwargs)
        assert got.iterations == alone.iterations
        np.testing.assert_array_equal(got.x, alone.x)
        np.testing.assert_array_equal(got.lam, alone.lam)
        np.testing.assert_array_equal(got.mu, alone.mu)
        np.testing.assert_array_equal(got.z, alone.z)
        assert got.f == alone.f


def test_batch_all_slots_singular_still_recovers():
    """Even when every slot is singular from the first iteration, the
    regularised retry recovers the whole batch on both backends (on the
    fixed-σ trajectory)."""
    import numpy as _np

    rng = _np.random.default_rng(4)
    batch, nx, neq, niq = 3, 5, 2, 2
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * _np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    Aeq[:, 1] = Aeq[:, 0]
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    beq[:, 1] = beq[:, 0]
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))

    def f_fcn(X, idx):
        Ha = H[idx]
        F = 0.5 * _np.einsum("bi,bij,bj->b", X, Ha, X) + _np.einsum("bi,bi->b", c[idx], X)
        return F, _np.einsum("bij,bj->bi", Ha, X) + c[idx]

    def gh_fcn(X, idx):
        return (
            _np.einsum("bij,bj->bi", Aeq[idx], X) - beq[idx],
            _np.einsum("bij,bj->bi", Ain[idx], X) - bin_[idx],
            Aeq[idx].reshape(idx.size, -1),
            Ain[idx].reshape(idx.size, -1),
        )

    def hess_fcn(X, lam_nl, mu_nl, idx):
        return H[idx].reshape(idx.size, -1)

    for backend in ("factorized", "ldl"):
        with kkt_solve(backend), fixed_sigma():
            results = mips_batch(
                f_fcn,
                _np.zeros((batch, nx)),
                gh_fcn=gh_fcn,
                hess_fcn=hess_fcn,
                plan=_dense_qp_plan(nx, neq, niq),
            )
        assert all(r.converged for r in results)
        assert all(r.kkt_regularizations > 0 for r in results)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_rows_retire_without_runtime_warnings():
    """Rows whose duals overflow retire through the Newton-step checks with
    their messages and iteration counts, raise no ``RuntimeWarning``, and
    leave every other row bitwise its one-row solve."""
    from test_scheduler_invariants import _qp_problem, _solve_qp_batch

    singular, exploded = (
        "numerically failed (singular KKT system)",
        "numerically failed (step size exploded)",
    )
    for shape, seed, diverging in (
        ((2, 2, 2, 1), 5690, {0: (singular, 70)}),
        ((5, 2, 2, 2), 6874, {1: (singular, 113), 2: (exploded, 14)}),
    ):
        problem = _qp_problem(*shape, seed=seed)
        results = _solve_qp_batch(*problem)
        for j, result in enumerate(results):
            if j in diverging:
                assert (result.message, result.iterations) == diverging[j]
                assert not result.converged
                continue
            (alone,) = _solve_qp_batch(*problem, rows=[j])
            assert result.converged and result.message == alone.message
            assert result.iterations == alone.iterations
            assert result.f == alone.f
            for name in ("x", "lam", "mu", "z"):
                assert np.array_equal(getattr(result, name), getattr(alone, name))
            assert result.kkt_regularizations == alone.kkt_regularizations
