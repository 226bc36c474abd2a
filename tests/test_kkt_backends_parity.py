"""Cross-backend parity harness for the KKT linear-solver layer.

Every registered :class:`~repro.mips.linsolve.KKTSolver` backend must be a
drop-in replacement for every other: same iteration counts, objectives to
1e-8 and solutions to solver precision over a shared corpus of random
same-pattern QPs and case9 / case14 / case118s cold+warm sweeps.  On top of
the trajectory-level parity, the ``factorized`` and ``blockdiag`` backends are
**bit-identical by construction** (the block-diagonal factorisation replays
the per-slot column permutation under the ``NATURAL`` ordering), which this
suite asserts down to the last bit so the guarantee cannot silently rot.

The multi-RHS surface (``solve_many``) and factorisation reuse (``resolve``)
are exercised for every backend as well: several right-hand sides against one
matrix must agree with column-by-column solves while sharing a single
factorisation on the backends that retain one.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.grid import get_case
from repro.grid.perturb import sample_loads
from repro.mips import (
    BlockDiagSolver,
    FactorizedSolver,
    KKTSolveError,
    MIPSOptions,
    SpsolveSolver,
    available_kkt_solvers,
    make_kkt_solver,
    mips_batch,
    qps_mips,
)
from repro.opf import OPFModel, OPFOptions, solve_opf_batch
from repro.opf.batch import BatchedOPFModel

BACKENDS = available_kkt_solvers()
#: The pair whose parity is bitwise by construction (shared column
#: permutation + NATURAL replay), not merely to solver tolerance.
BITWISE_PAIR = ("factorized", "blockdiag")


def _opts(backend: str) -> OPFOptions:
    return OPFOptions(mips=MIPSOptions(kkt_solver=backend))


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
    def f_fcn(X, idx):
        Ha = H[idx]
        F = 0.5 * np.einsum("bi,bij,bj->b", X, Ha, X) + np.einsum("bi,bi->b", c[idx], X)
        dF = np.einsum("bij,bj->bi", Ha, X) + c[idx]
        return F, dF

    def gh_fcn(X, idx):
        G = np.einsum("bij,bj->bi", Aeq[idx], X) - beq[idx]
        Hc = np.einsum("bij,bj->bi", Ain[idx], X) - bin_[idx]
        return G, Hc, Aeq[idx].reshape(idx.size, -1), Ain[idx].reshape(idx.size, -1)

    def hess_fcn(X, lam_nl, mu_nl, cost_mult, idx):
        return (H[idx] * cost_mult).reshape(idx.size, -1)

    return f_fcn, gh_fcn, hess_fcn


def _solve_qp_batch(backend: str, seed=11):
    H, c, Aeq, beq, Ain, bin_ = _qp_batch(seed=seed)
    batch, nx = c.shape
    neq, niq = beq.shape[1], bin_.shape[1]
    f_fcn, gh_fcn, hess_fcn = _qp_callbacks(H, c, Aeq, beq, Ain, bin_)
    return mips_batch(
        f_fcn,
        np.zeros((batch, nx)),
        gh_fcn=gh_fcn,
        hess_fcn=hess_fcn,
        jg_template=sp.csr_matrix(np.ones((neq, nx))),
        jh_template=sp.csr_matrix(np.ones((niq, nx))),
        hess_template=sp.csr_matrix(np.ones((nx, nx))),
        xmin=np.full(nx, -5.0),
        xmax=np.full(nx, 5.0),
        options=MIPSOptions(kkt_solver=backend),
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


def test_registry_contains_all_three_backends():
    assert set(BACKENDS) >= {"spsolve", "factorized", "blockdiag"}


def test_qp_corpus_parity_across_backends():
    results = {name: _solve_qp_batch(name) for name in BACKENDS}
    _assert_trajectory_parity(results)
    for a, b in zip(results[BITWISE_PAIR[0]], results[BITWISE_PAIR[1]]):
        _assert_bitwise(a, b)


def test_scalar_qp_parity_across_backends():
    rng = np.random.default_rng(3)
    M = rng.uniform(0.5, 1.5, size=(4, 4))
    H = M @ M.T + 4 * np.eye(4)
    c = rng.uniform(-1.0, 1.0, size=4)
    results = {}
    for name in BACKENDS:
        results[name] = qps_mips(
            H,
            c,
            A_eq=[[1.0, 1.0, 0.0, 0.0]],
            b_eq=[1.0],
            A_in=[[0.0, 1.0, 1.0, 1.0]],
            b_in=[2.0],
            xmin=np.full(4, -3.0),
            xmax=np.full(4, 3.0),
            options=MIPSOptions(kkt_solver=name),
        )
    _assert_trajectory_parity({k: [v] for k, v in results.items()})
    _assert_bitwise(results[BITWISE_PAIR[0]], results[BITWISE_PAIR[1]])


# ----------------------------------------------------------------- OPF corpus
@pytest.fixture(scope="module", params=["case9", "case14"])
def small_case_setup(request):
    case = get_case(request.param)
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    samples = sample_loads(case, 4, variation=0.06, seed=17)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    return case, model, batched, Pd, Qd


def test_cold_sweep_parity_across_backends(small_case_setup):
    case, model, batched, Pd, Qd = small_case_setup
    results = {
        name: solve_opf_batch(case, Pd, Qd, options=_opts(name), model=model, batched=batched)
        for name in BACKENDS
    }
    _assert_trajectory_parity(results)
    for a, b in zip(results[BITWISE_PAIR[0]], results[BITWISE_PAIR[1]]):
        _assert_bitwise(a, b)


def test_warm_sweep_parity_across_backends(small_case_setup):
    case, model, batched, Pd, Qd = small_case_setup
    base = solve_opf_batch(case, Pd, Qd, model=model, batched=batched)
    assert all(r.success for r in base)
    warms = [r.warm_start() for r in base]
    Pd2 = Pd * 1.01
    results = {
        name: solve_opf_batch(
            case, Pd2, Qd, warm_starts=warms, options=_opts(name), model=model, batched=batched
        )
        for name in BACKENDS
    }
    _assert_trajectory_parity(results)
    for a, b in zip(results[BITWISE_PAIR[0]], results[BITWISE_PAIR[1]]):
        _assert_bitwise(a, b)


def test_case118s_sweep_parity_across_backends():
    """The largest bundled system: cold + warm lockstep sweeps, all backends.

    Cold case118s trajectories run ~55 interior-point iterations, enough
    chaotic amplification that the ``spsolve`` backend (which re-runs the full
    symbolic analysis per iteration and therefore is not bit-identical to the
    cached-permutation backends) lands a few 1e-8 relative units away in
    objective — so the cold leg asserts success/objective agreement at 1e-6
    relative across all backends and keeps the **bitwise** guarantee for the
    ``factorized``/``blockdiag`` pair.  The warm leg (the serving workload)
    holds identical iteration counts across the SuperLU-family backends, with
    objectives compared at the solver's own convergence scale (two converged
    trajectories may stop at slightly different points inside the 1e-6
    tolerance band).  The ``ldl`` backend polishes every solve with guarded
    iterative refinement against the true KKT matrix, so on an
    ill-conditioned late-barrier iteration its Newton step can be *more*
    accurate than unrefined partial-pivoted LU — on a knife-edge member that
    legitimately shaves an interior-point iteration, so non-SuperLU backends
    are held to within one iteration of the reference trajectory rather than
    bit-for-bit lockstep.
    """
    case = get_case("case118s")
    model = OPFModel(case)
    batched = BatchedOPFModel(model)
    samples = sample_loads(case, 4, variation=0.03, seed=5)
    Pd = np.stack([s.Pd for s in samples])
    Qd = np.stack([s.Qd for s in samples])
    cold = {
        name: solve_opf_batch(case, Pd, Qd, options=_opts(name), model=model, batched=batched)
        for name in BACKENDS
    }
    for name in BACKENDS:
        for i, r in enumerate(cold[name]):
            assert r.success, (name, i)
            ref = cold[BACKENDS[0]][i]
            assert abs(r.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))
    for a, b in zip(cold[BITWISE_PAIR[0]], cold[BITWISE_PAIR[1]]):
        _assert_bitwise(a, b)

    warms = [r.warm_start() for r in cold["factorized"]]
    warm = {
        name: solve_opf_batch(
            case, Pd * 1.01, Qd, warm_starts=warms, options=_opts(name), model=model,
            batched=batched,
        )
        for name in BACKENDS
    }
    superlu_family = [n for n in BACKENDS if n in ("spsolve", "factorized", "blockdiag")]
    _assert_trajectory_parity({n: warm[n] for n in superlu_family}, objective_rtol=1e-6)
    for name in BACKENDS:
        for i, r in enumerate(warm[name]):
            ref = warm[BACKENDS[0]][i]
            assert r.success, (name, i)
            assert abs(r.iterations - ref.iterations) <= 1, (
                f"warm member {i}: {name}={r.iterations} vs "
                f"{BACKENDS[0]}={ref.iterations}"
            )
            assert abs(r.objective - ref.objective) <= 1e-6 * (1.0 + abs(ref.objective))
    for a, b in zip(warm[BITWISE_PAIR[0]], warm[BITWISE_PAIR[1]]):
        _assert_bitwise(a, b)
    # Warm starts help identically under every backend.
    for name in BACKENDS:
        assert max(r.iterations for r in warm[name]) < max(r.iterations for r in cold[name])


# ----------------------------------------------------- multi-RHS / resolve API
def _well_posed_system(seed=0, n=50):
    """Symmetric quasi-definite test system — the shape every KKT matrix in
    this codebase actually has, and the contract the ``ldl`` backend is
    specified against (the SuperLU-family backends accept it trivially)."""
    rng = np.random.RandomState(seed)
    A = sp.random(n, n, density=0.12, random_state=rng, format="csc")
    m = n // 3
    signs = np.r_[np.ones(n - m), -np.ones(m)]
    A = sp.csc_matrix(A + A.T + sp.diags(signs * 4.0))
    A.sort_indices()
    return A, rng.standard_normal((n, 3))


@pytest.mark.parametrize("name", BACKENDS)
def test_solve_many_matches_column_solves(name):
    kkt, rhs_block = _well_posed_system(seed=int(np.sum([ord(ch) for ch in name])))
    solver = make_kkt_solver(name)
    block = solver.solve_many(kkt, rhs_block)
    assert block.shape == rhs_block.shape
    assert solver.factor_seconds >= 0.0 and solver.backsolve_seconds >= 0.0
    reference = make_kkt_solver(name)
    for j in range(rhs_block.shape[1]):
        np.testing.assert_allclose(block[:, j], reference.solve(kkt, rhs_block[:, j]), atol=1e-10)


@pytest.mark.parametrize("name", BACKENDS)
def test_solve_many_accepts_single_rhs(name):
    kkt, rhs_block = _well_posed_system(seed=7)
    solver = make_kkt_solver(name)
    out = solver.solve_many(kkt, rhs_block[:, 0])
    assert out.shape == (kkt.shape[0], 1)
    np.testing.assert_allclose(out[:, 0], make_kkt_solver(name).solve(kkt, rhs_block[:, 0]), atol=1e-12)


def test_factorized_solve_many_shares_one_factorisation():
    kkt, rhs_block = _well_posed_system(seed=2)
    solver = FactorizedSolver()
    solver.solve_many(kkt, rhs_block)
    assert solver.symbolic_reuses == 0
    # Same pattern again: the cached permutation path proves the factorisation
    # machinery ran once for the whole block, not once per column.
    solver.solve_many(kkt, rhs_block)
    assert solver.symbolic_reuses == 1


@pytest.mark.parametrize("cls", [FactorizedSolver, BlockDiagSolver])
def test_resolve_reuses_last_factorisation(cls):
    kkt, rhs_block = _well_posed_system(seed=4)
    solver = cls()
    first = solver.solve(kkt, rhs_block[:, 0])
    again = solver.resolve(rhs_block[:, 0])
    np.testing.assert_array_equal(first, again)
    other = solver.resolve(rhs_block[:, 1])
    np.testing.assert_allclose(kkt @ other, rhs_block[:, 1], atol=1e-9)


def test_resolve_without_factorisation_raises():
    with pytest.raises(KKTSolveError):
        SpsolveSolver().resolve(np.ones(3))
    with pytest.raises(KKTSolveError):
        FactorizedSolver().resolve(np.ones(3))


def test_scalar_refinement_polishes_residual_and_preserves_convergence():
    """``kkt_refine_steps`` re-solves the residual against the iteration's
    factorisation (the scalar multi-RHS reuse path) without changing where
    the solver lands."""
    rng = np.random.default_rng(9)
    M = rng.uniform(0.5, 1.5, size=(5, 5))
    H = M @ M.T + 5 * np.eye(5)
    c = rng.uniform(-1.0, 1.0, size=5)
    plain = qps_mips(H, c, A_eq=[[1.0] * 5], b_eq=[1.0], options=MIPSOptions())
    refined = qps_mips(
        H, c, A_eq=[[1.0] * 5], b_eq=[1.0], options=MIPSOptions(kkt_refine_steps=2)
    )
    assert plain.converged and refined.converged
    assert abs(plain.f - refined.f) <= 1e-8 * (1.0 + abs(plain.f))
    np.testing.assert_allclose(plain.x, refined.x, atol=1e-8)


def test_blockdiag_detects_pattern_change_with_same_shape_and_nnz():
    """Reusing one solver across different patterns must not replay stale
    permutation plans — the cache key is the index arrays, not (shape, nnz)."""
    n = 12
    rng = np.random.RandomState(8)
    diag = sp.diags(np.full(n, 5.0))
    # Same shape, same nnz (2n - 1), different patterns: super- vs subdiagonal.
    off = np.arange(1, n, dtype=float)
    a = sp.csc_matrix(diag + sp.diags(off, offsets=1))
    b = sp.csc_matrix(diag + sp.diags(off, offsets=-1))
    a.sort_indices()
    b.sort_indices()
    assert a.nnz == b.nnz and not np.array_equal(a.indices, b.indices)
    rhs = rng.standard_normal((2, n))
    solver = BlockDiagSolver()
    for matrix in (a, b, a):
        # Two calls per pattern so the second exercises the block (replay) path.
        for _ in range(2):
            report = solver.solve_blocks(matrix, np.stack([matrix.data, matrix.data * 1.5]), rhs)
            assert not report.failed
            np.testing.assert_allclose(matrix @ report.solutions[0], rhs[0], atol=1e-9)
            np.testing.assert_allclose((1.5 * matrix) @ report.solutions[1], rhs[1], atol=1e-9)


def test_blockdiag_scalar_path_is_bitwise_factorized():
    """Selected for a scalar solve, ``blockdiag`` degrades to ``factorized``."""
    rng = np.random.default_rng(6)
    M = rng.uniform(0.5, 1.5, size=(5, 5))
    H = M @ M.T + 5 * np.eye(5)
    c = rng.uniform(-1.0, 1.0, size=5)
    kw = dict(A_eq=[[1.0] * 5], b_eq=[1.0], A_in=[[0.0, 1.0, 1.0, 0.0, 0.0]], b_in=[1.5])
    a = qps_mips(H, c, options=MIPSOptions(kkt_solver="factorized"), **kw)
    b = qps_mips(H, c, options=MIPSOptions(kkt_solver="blockdiag"), **kw)
    _assert_bitwise(a, b)
