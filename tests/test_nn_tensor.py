"""Tests of the autograd tensor: forward values and gradient correctness."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concatenate


def numeric_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a NumPy array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def check_gradient(build, x0, tol=1e-6):
    """Compare autograd against finite differences for a scalar-valued graph."""
    t = Tensor(x0.copy(), requires_grad=True)
    loss = build(t)
    loss.backward()
    fd = numeric_gradient(lambda arr: build(Tensor(arr)).item(), x0.copy())
    assert np.abs(t.grad - fd).max() < tol


# ------------------------------------------------------------------ forward values
def test_basic_arithmetic_values():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert np.allclose((a + b).data, [5, 7, 9])
    assert np.allclose((a - b).data, [-3, -3, -3])
    assert np.allclose((a * b).data, [4, 10, 18])
    assert np.allclose((b / a).data, [4, 2.5, 2])
    assert np.allclose((a ** 2).data, [1, 4, 9])
    assert np.allclose((-a).data, [-1, -2, -3])


def test_reflected_operators_with_numpy_arrays():
    a = Tensor([1.0, 2.0], requires_grad=True)
    out = np.array([3.0, 4.0]) - a
    assert isinstance(out, Tensor)
    assert np.allclose(out.data, [2.0, 2.0])
    out2 = 2.0 * a + np.ones(2)
    assert np.allclose(out2.data, [3.0, 5.0])


def test_matmul_shapes():
    A = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    B = Tensor(np.arange(12, dtype=float).reshape(3, 4))
    assert (A @ B).shape == (2, 4)
    v = Tensor(np.ones(3))
    assert (A @ v).shape == (2,)


def test_reductions_and_item():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    assert x.sum().item() == 15
    assert x.mean().item() == pytest.approx(2.5)
    assert np.allclose(x.sum(axis=0).data, [3, 5, 7])
    assert np.allclose(x.mean(axis=1).data, [1, 4])


def test_elementwise_functions_values():
    x = Tensor([-1.0, 0.0, 2.0])
    assert np.allclose(x.relu().data, [0, 0, 2])
    assert np.allclose(x.abs().data, [1, 0, 2])
    assert np.allclose(x.tanh().data, np.tanh(x.data))
    assert np.allclose(x.sigmoid().data, 1 / (1 + np.exp(-x.data)))
    assert np.allclose(x.clamp_min(0.5).data, [0.5, 0.5, 2.0])
    y = Tensor([1.0, 4.0])
    assert np.allclose(y.sqrt().data, [1, 2])
    assert np.allclose(y.log().data, np.log(y.data))


def test_sigmoid_is_stable_for_large_inputs():
    x = Tensor([-1000.0, 1000.0])
    out = x.sigmoid().data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)


def test_getitem_and_reshape_and_transpose():
    x = Tensor(np.arange(12, dtype=float).reshape(3, 4))
    assert np.allclose(x[1].data, [4, 5, 6, 7])
    assert np.allclose(x[:, [0, 2]].data, [[0, 2], [4, 6], [8, 10]])
    assert x.reshape(4, 3).shape == (4, 3)
    assert x.T.shape == (4, 3)


def test_detach_cuts_graph():
    x = Tensor([2.0], requires_grad=True)
    y = (x * 3).detach() * x
    y.sum().backward()
    # Gradient only flows through the second factor: d/dx (6 * x) = 6.
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


# ----------------------------------------------------------------- gradient checks
def test_gradient_arithmetic_chain():
    check_gradient(lambda t: ((t * 3 - 1) ** 2).sum(), np.array([0.5, -1.2, 2.0]))


def test_gradient_division_and_sqrt():
    check_gradient(lambda t: ((t / 2.0).sqrt() * 5).sum(), np.array([1.0, 4.0, 9.0]))


def test_gradient_matmul():
    W = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 0.1]])
    check_gradient(lambda t: ((t @ W) ** 2).sum(), np.random.default_rng(0).standard_normal((4, 3)))


def test_gradient_trig_and_exp():
    check_gradient(lambda t: (t.sin() * t.cos() + t.exp()).sum(), np.array([0.3, -0.7, 1.1]))


def test_gradient_sigmoid_tanh_relu_softplus():
    x0 = np.array([-0.8, 0.2, 1.5, -2.0])
    check_gradient(lambda t: (t.sigmoid() * 2 + t.tanh()).sum(), x0)
    check_gradient(lambda t: (t.relu() ** 2).sum(), x0 + 0.05)  # avoid the kink


def test_gradient_broadcasting():
    b = np.array([0.5, -1.0, 2.0])
    check_gradient(lambda t: ((t + b) * 2).sum(), np.random.default_rng(1).standard_normal((5, 3)))
    # Broadcast in the other direction: parameter is the small tensor.
    X = np.random.default_rng(2).standard_normal((5, 3))
    check_gradient(lambda t: ((Tensor(X) * t) ** 2).sum(), np.array([[1.0, -0.5, 0.3]]))


def test_gradient_mean_axis():
    check_gradient(lambda t: (t.mean(axis=0) ** 2).sum(), np.random.default_rng(3).standard_normal((4, 3)))


def test_gradient_getitem_advanced_indexing():
    idx = np.array([0, 2])
    check_gradient(lambda t: (t[:, idx] ** 2).sum(), np.random.default_rng(4).standard_normal((3, 4)))


def test_gradient_concatenate():
    def build(t):
        a = t * 2
        b = t.sin()
        return (concatenate([a, b], axis=1) ** 2).sum()

    check_gradient(build, np.random.default_rng(5).standard_normal((2, 3)))


def test_gradient_accumulates_over_reuse():
    x = Tensor([1.5], requires_grad=True)
    y = x * x + x * 3  # dy/dx = 2x + 3 = 6
    y.sum().backward()
    assert x.grad[0] == pytest.approx(6.0)


def test_zero_grad_clears_gradient():
    x = Tensor([1.0], requires_grad=True)
    (x * 2).sum().backward()
    assert x.grad is not None
    x.zero_grad()
    assert x.grad is None


def test_as_tensor_passes_tensors_through():
    stacked = concatenate([Tensor([1.0]), Tensor([2.0])], axis=0)
    assert as_tensor(stacked) is stacked
    assert isinstance(as_tensor(np.ones(2)), Tensor)


def test_pickle_drops_graph():
    import pickle

    x = Tensor([1.0, 2.0], requires_grad=True)
    y = (x * 2).sum()
    blob = pickle.dumps(y)
    restored = pickle.loads(blob)
    assert restored.data == pytest.approx(6.0)
    assert restored._parents == ()
