"""Parity harness for the KKT solve: ``LDLSolver`` against its SuperLU reference.

``"ldl"``, the one KKT solve :func:`~repro.mips.batch.mips_batch` builds, and
``"factorized"``, the independent SuperLU reference of
:mod:`reference.kkt` put in its place in-process by
:func:`reference.kkt.kkt_solve`, must be
drop-in replacements for each other: same iteration counts, objectives to
1e-8 and solutions to solver precision over a shared corpus of random
same-pattern QPs and case9 / case14 / case118s cold+warm sweeps, and every
converged OPF row must pass the independent KKT certificate
(:func:`repro.opf.certify_opf`).  On top of
the trajectory-level parity, each backend must keep the rows of a lockstep
batch **isolated**: a scenario solved inside a batch lands on the very bits
it lands on when solved alone at width 1, which this suite asserts down to
the last bit so the guarantee cannot silently rot.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from reference.kkt import BACKENDS, kkt_solve
from reference.qp import qps_mips
from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import LockstepPlan, mips_batch
from repro.opf import OPFModel, certify_opf, solve_opf_batch


def _solve_opf_batch(backend: str, *args, **kwargs):
    """``solve_opf_batch`` with the KKT solve swapped for ``backend``."""
    with kkt_solve(backend):
        return solve_opf_batch(*args, **kwargs)


# ----------------------------------------------------------------- QP corpus
def _qp_batch(batch=6, nx=7, neq=2, niq=3, seed=11):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, size=(batch, nx, nx))
    H = M @ M.transpose(0, 2, 1) + nx * np.eye(nx)
    c = rng.uniform(-1.0, 1.0, size=(batch, nx))
    Aeq = rng.uniform(0.5, 1.5, size=(batch, neq, nx))
    beq = rng.uniform(-0.5, 0.5, size=(batch, neq))
    Ain = rng.uniform(0.5, 1.5, size=(batch, niq, nx))
    bin_ = rng.uniform(1.0, 2.0, size=(batch, niq))
    return H, c, Aeq, beq, Ain, bin_


def _qp_callbacks(H, c, Aeq, beq, Ain, bin_):
    # Row-wise loops (not batched einsum), so a row's callback values do not
    # depend on which other rows share the call — what the row-isolation
    # assertions need, and what the real batched OPF kernels guarantee.
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

    return f_fcn, gh_fcn, hess_fcn


def _solve_qp_batch(backend: str, seed=11, rows=None):
    """The QP corpus through ``mips_batch``; ``rows`` keeps only those members
    (the same problems, solved in a narrower batch)."""
    H, c, Aeq, beq, Ain, bin_ = _qp_batch(seed=seed)
    if rows is not None:
        H, c, Aeq, beq, Ain, bin_ = (a[rows] for a in (H, c, Aeq, beq, Ain, bin_))
    batch, nx = c.shape
    neq, niq = beq.shape[1], bin_.shape[1]
    f_fcn, gh_fcn, hess_fcn = _qp_callbacks(H, c, Aeq, beq, Ain, bin_)
    plan = LockstepPlan(
        nx,
        sp.csr_matrix(np.ones((neq, nx))),
        sp.csr_matrix(np.ones((niq, nx))),
        sp.csr_matrix(np.ones((nx, nx))),
        np.full(nx, -5.0),
        np.full(nx, 5.0),
    )
    with kkt_solve(backend):
        return mips_batch(
            f_fcn, np.zeros((batch, nx)), gh_fcn=gh_fcn, hess_fcn=hess_fcn, plan=plan
        )


def _assert_trajectory_parity(results_by_backend, objective_rtol=1e-8):
    """Identical iteration counts + matching objectives across all backends."""
    names = list(results_by_backend)
    ref_name = names[0]
    ref = results_by_backend[ref_name]
    for name in names[1:]:
        got = results_by_backend[name]
        assert len(got) == len(ref)
        for i, (a, b) in enumerate(zip(ref, got)):
            assert _converged(a) and _converged(b), (ref_name, name, i)
            assert a.iterations == b.iterations, (
                f"iteration mismatch on member {i}: {ref_name}={a.iterations} "
                f"{name}={b.iterations}"
            )
            scale = 1.0 + abs(_objective(a))
            assert abs(_objective(a) - _objective(b)) <= objective_rtol * scale


def _objective(result):
    return result.objective if hasattr(result, "objective") else result.f


def _converged(result):
    return result.success if hasattr(result, "success") else result.converged


def _assert_bitwise(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.lam, b.lam)
    np.testing.assert_array_equal(a.mu, b.mu)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.iterations == b.iterations
    assert _objective(a) == _objective(b)
    # MIPS-level results carry the recovery count; it is row-local too.
    assert getattr(a, "kkt_regularizations", 0) == getattr(b, "kkt_regularizations", 0)


def _assert_certified(case, results, Pd, Qd):
    """Every converged OPF row is a KKT point by the independent certificate."""
    for i, r in enumerate(results):
        if r.success:
            certificate = certify_opf(case, r, Pd[i], Qd[i])
            assert certificate.holds(), (i, certificate)


def _assert_rows_isolated(batch_results, solve_alone):
    """Each batch member is bitwise the same scenario solved at width 1."""
    for b, got in enumerate(batch_results):
        (alone,) = solve_alone(b)
        _assert_bitwise(got, alone)


def test_qp_corpus_parity_across_backends():
    results = {name: _solve_qp_batch(name) for name in BACKENDS}
    _assert_trajectory_parity(results)
    for name in BACKENDS:
        _assert_rows_isolated(results[name], lambda b: _solve_qp_batch(name, rows=[b]))


def test_scalar_qp_parity_across_backends():
    rng = np.random.default_rng(3)
    M = rng.uniform(0.5, 1.5, size=(4, 4))
    H = M @ M.T + 4 * np.eye(4)
    c = rng.uniform(-1.0, 1.0, size=4)
    results = {}
    for name in BACKENDS:
        with kkt_solve(name):
            results[name] = qps_mips(
                H,
                c,
                A_eq=[[1.0, 1.0, 0.0, 0.0]],
                b_eq=[1.0],
                A_in=[[0.0, 1.0, 1.0, 1.0]],
                b_in=[2.0],
                xmin=np.full(4, -3.0),
                xmax=np.full(4, 3.0),
            )
    _assert_trajectory_parity({k: [v] for k, v in results.items()})


# ----------------------------------------------------------------- OPF corpus
@pytest.fixture(scope="module", params=["case9", "case14"])
def small_case_setup(request):
    case = get_case(request.param)
    model = OPFModel(case)
    samples = sample_loads(case, 4, variation=0.06, seed=17)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    return case, model, Pd, Qd


def test_cold_sweep_parity_across_backends(small_case_setup):
    case, model, Pd, Qd = small_case_setup
    results = {name: _solve_opf_batch(name, case, Pd, Qd, model=model) for name in BACKENDS}
    _assert_trajectory_parity(results)
    for name in BACKENDS:
        _assert_certified(case, results[name], Pd, Qd)
        _assert_rows_isolated(
            results[name],
            lambda b: _solve_opf_batch(name, case, Pd[b : b + 1], Qd[b : b + 1], model=model),
        )


def test_warm_sweep_parity_across_backends(small_case_setup):
    case, model, Pd, Qd = small_case_setup
    base = solve_opf_batch(case, Pd, Qd, model=model)
    assert all(r.success for r in base)
    warms = [r.warm_start() for r in base]
    Pd2 = Pd * 1.01
    results = {
        name: _solve_opf_batch(name, case, Pd2, Qd, warm_starts=warms, model=model)
        for name in BACKENDS
    }
    _assert_trajectory_parity(results)
    for name in BACKENDS:
        _assert_certified(case, results[name], Pd2, Qd)


def test_case118s_sweep_parity_across_backends():
    """The largest bundled system: cold + warm lockstep sweeps, all backends.

    Cold case118s trajectories run ~15 predictor–corrector iterations (~55
    fixed-σ ones), enough chaotic amplification that two correct linear solvers land a few 1e-8
    relative units apart in objective — so the cold leg asserts
    success/objective agreement at 1e-6 relative.  On the warm leg (the
    serving workload) objectives are compared at the solver's own convergence
    scale (two converged trajectories may stop at slightly different points
    inside the 1e-6 tolerance band).  The ``ldl`` backend polishes every solve
    with guarded iterative refinement against the true KKT matrix, so on an
    ill-conditioned late-barrier iteration its Newton step can be *more*
    accurate than unrefined partial-pivoted LU — on a knife-edge member that
    legitimately shaves an interior-point iteration, so it is held to within
    one iteration of the reference trajectory rather than bit-for-bit
    lockstep.
    """
    case = get_case("case118s")
    model = OPFModel(case)
    samples = sample_loads(case, 4, variation=0.03, seed=5)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    cold = {name: _solve_opf_batch(name, case, Pd, Qd, model=model) for name in BACKENDS}
    for name in BACKENDS:
        for i, r in enumerate(cold[name]):
            assert r.success, (name, i)
            ref = cold["factorized"][i]
            assert abs(r.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))
        _assert_certified(case, cold[name], Pd, Qd)

    warms = [r.warm_start() for r in cold["factorized"]]
    warm = {
        name: _solve_opf_batch(name, case, Pd * 1.01, Qd, warm_starts=warms, model=model)
        for name in BACKENDS
    }
    for name in BACKENDS:
        for i, r in enumerate(warm[name]):
            ref = warm["factorized"][i]
            assert r.success, (name, i)
            assert abs(r.iterations - ref.iterations) <= 1, (
                f"warm member {i}: {name}={r.iterations} vs "
                f"factorized={ref.iterations}"
            )
            assert abs(r.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))
        _assert_certified(case, warm[name], Pd * 1.01, Qd)
    # Warm starts help identically under every backend.
    for name in BACKENDS:
        assert max(r.iterations for r in warm[name]) < max(r.iterations for r in cold[name])
