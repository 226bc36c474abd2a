"""Property-based tests (hypothesis) of core kernels and data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from reference.qp import qps_mips
from repro.core.metrics import relative_errors, speedup_su
from repro.grid import SyntheticGridConfig, generate_case, validate_case
from repro.mtl.normalization import MinMaxScaler
from repro.nn import Tensor, charbonnier
from repro.powerflow import bus_injection, dSbus_dV, make_ybus, polar_to_complex

FINITE = dict(allow_nan=False, allow_infinity=False)


# ------------------------------------------------------------------ autograd engine
@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(float, (3, 4), elements=st.floats(-5, 5, **FINITE)),
    hnp.arrays(float, (3, 4), elements=st.floats(-5, 5, **FINITE)),
)
def test_tensor_addition_matches_numpy(a, b):
    out = Tensor(a) + Tensor(b)
    assert np.allclose(out.data, a + b)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(float, (6,), elements=st.floats(-3, 3, **FINITE)))
def test_sigmoid_output_in_unit_interval(x):
    out = Tensor(x).sigmoid().data
    assert np.all(out >= 0) and np.all(out <= 1)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(float, (5,), elements=st.floats(-10, 10, **FINITE)))
def test_charbonnier_non_negative_and_zero_at_match(x):
    t = Tensor(x)
    assert charbonnier(t, t).item() <= 1e-8
    assert charbonnier(t, Tensor(np.zeros_like(x))).item() >= 0


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(float, (4, 3), elements=st.floats(-2, 2, **FINITE)),
    hnp.arrays(float, (3, 2), elements=st.floats(-2, 2, **FINITE)),
)
def test_matmul_gradient_shape_matches_parameter(a, b):
    ta = Tensor(a, requires_grad=True)
    (ta @ Tensor(b)).sum().backward()
    assert ta.grad.shape == a.shape
    # Gradient of sum(A @ B) w.r.t. A is the row-broadcast of B's row sums.
    assert np.allclose(ta.grad, np.tile(b.sum(axis=1), (4, 1)))


# ----------------------------------------------------------------------- normaliser
@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(2, 12), st.integers(1, 5)),
        elements=st.floats(-100, 100, **FINITE),
    )
)
def test_minmax_scaler_roundtrip_property(values):
    scaler = MinMaxScaler.fit(values)
    normed = scaler.transform(values)
    assert np.all(normed >= -1e-9) and np.all(normed <= 1 + 1e-9)
    assert np.allclose(scaler.inverse(normed), values, atol=1e-6)


# -------------------------------------------------------------------------- metrics
@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.1, 1000),
    st.floats(0.001, 10),
    st.floats(0.001, 500),
    st.floats(0, 1),
)
def test_speedup_su_positive_and_bounded(t_mips, t_mtl, t_warm, sr):
    su = speedup_su(t_mips, t_mtl, t_warm, sr)
    assert su > 0
    # SU can never exceed the ratio of the cold time to the inference time alone.
    assert su <= t_mips / t_mtl + 1e-9


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(float, (5,), elements=st.floats(0.1, 100, **FINITE)))
def test_relative_errors_zero_for_exact_prediction(truth):
    assert np.allclose(relative_errors(truth, truth), 0)


# ------------------------------------------------------------------------ power flow
@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.9, 1.1),
)
def test_bus_injection_derivative_consistency(seed, scale):
    """dSbus_dV must match finite differences for random voltage profiles (case9)."""
    from repro.grid import case9

    case = case9()
    adm = make_ybus(case)
    rng = np.random.default_rng(seed)
    Va = 0.05 * rng.standard_normal(9)
    Vm = scale * np.ones(9) + 0.02 * rng.standard_normal(9)
    V = polar_to_complex(Va, Vm)
    dSa, dSm = dSbus_dV(adm.Ybus, V)
    eps = 1e-7
    i = int(rng.integers(0, 9))
    Va_p = Va.copy()
    Va_p[i] += eps
    fd = (bus_injection(adm.Ybus, polar_to_complex(Va_p, Vm)) - bus_injection(adm.Ybus, V)) / eps
    assert np.abs(dSa.toarray()[:, i] - fd).max() < 1e-5


# -------------------------------------------------------------------- synthetic grid
@settings(max_examples=8, deadline=None)
@given(
    st.integers(6, 24),
    st.integers(0, 10_000),
)
def test_synthetic_cases_always_valid(n_bus, seed):
    n_gen = max(1, n_bus // 4)
    n_branch = n_bus + n_bus // 3
    cfg = SyntheticGridConfig(n_bus=n_bus, n_gen=n_gen, n_branch=n_branch, seed=seed)
    case = generate_case(cfg)
    assert validate_case(case, raise_on_error=False) == []
    assert case.gen.Pmax[case.gen.status > 0].sum() >= case.bus.Pd.sum()


# -------------------------------------------------------------------------- QP solver
@settings(max_examples=10, deadline=None)
@given(
    hnp.arrays(float, (3,), elements=st.floats(0.5, 5.0, **FINITE)),
    hnp.arrays(float, (3,), elements=st.floats(-3.0, 3.0, **FINITE)),
)
def test_box_constrained_diagonal_qp_solution(diag, target):
    """min Σ d_i (x_i - t_i)^2 on [-1, 1]^3 has the clipped analytic solution."""
    H = np.diag(2 * diag)
    c = -2 * diag * target
    res = qps_mips(H, c, xmin=-np.ones(3), xmax=np.ones(3))
    assert res.converged
    # A well-posed convex QP must never need singular-KKT regularisation.
    assert res.kkt_regularizations == 0
    # MIPS stops on its relative termination tolerances (1e-6); for targets
    # sitting exactly on a bound the iterate can be ~1e-3 inside the box, so
    # the comparison tolerance must be looser than the solver's, not tighter.
    assert np.allclose(res.x, np.clip(target, -1, 1), atol=2e-3)

