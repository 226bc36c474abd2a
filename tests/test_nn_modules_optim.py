"""Tests of layers, losses, optimisers, schedulers and serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    StepLR,
    Tensor,
    charbonnier,
    clip_grad_norm,
    mlp,
)
from repro.nn.modules import Parameter


# ----------------------------------------------------------------------- modules
def test_linear_forward_shape_and_bias():
    layer = Linear(3, 2, rng=0)
    out = layer(Tensor(np.ones((5, 3))))
    assert out.shape == (5, 2)
    no_bias = Linear(3, 2, bias=False, rng=0)
    assert no_bias.bias is None
    assert len(no_bias.parameters()) == 1


def test_linear_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Linear(0, 3)


def test_sequential_composition_and_parameters():
    net = Sequential(Linear(4, 8, rng=1), ReLU(), Linear(8, 2, rng=2))
    assert len(net) == 3
    assert len(net.parameters()) == 4
    out = net(Tensor(np.zeros((1, 4))))
    assert out.shape == (1, 2)


def test_mlp_builder_structure():
    net = mlp([4, 16, 16, 3], output_activation=Sigmoid, rng=0)
    out = net(Tensor(np.zeros((2, 4))))
    assert out.shape == (2, 3)
    assert np.all((out.data >= 0) & (out.data <= 1))
    with pytest.raises(ValueError):
        mlp([4])


def test_named_parameters_and_counts():
    net = mlp([3, 5, 2], rng=0)
    names = dict(net.named_parameters())
    assert any("weight" in n for n in names)
    assert net.n_parameters() == 3 * 5 + 5 + 5 * 2 + 2


def test_train_eval_mode_propagates():
    net = Sequential(Linear(2, 2), ReLU())
    net.eval()
    assert all(not m.training for m in net.modules())
    net.train()
    assert all(m.training for m in net.modules())


def test_state_dict_roundtrip():
    net = mlp([3, 8, 2], rng=0)
    other = mlp([3, 8, 2], rng=99)
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    assert not np.allclose(net(x).data, other(x).data)
    other.load_state_dict(net.state_dict())
    np.testing.assert_array_equal(net(x).data, other(x).data)


def test_load_state_dict_rejects_mismatch():
    net = mlp([3, 8, 2], rng=0)
    state = net.state_dict()
    state.pop(next(iter(state)))
    with pytest.raises(KeyError):
        net.load_state_dict(state)


def test_module_zero_grad():
    net = Linear(2, 2, rng=0)
    out = net(Tensor(np.ones((1, 2)))).sum()
    out.backward()
    assert net.weight.grad is not None
    net.zero_grad()
    assert net.weight.grad is None


# ------------------------------------------------------------------------ losses
def test_charbonnier_approximates_l1_for_large_errors():
    pred = Tensor(np.array([10.0]))
    target = Tensor(np.array([0.0]))
    assert charbonnier(pred, target).item() == pytest.approx(10.0, rel=1e-6)


def test_charbonnier_smooth_at_zero():
    value = charbonnier(Tensor(np.zeros(4)), Tensor(np.zeros(4)), epsilon=1e-9).item()
    assert value == pytest.approx(1e-9, rel=1e-3)


def test_charbonnier_weight_scales_loss():
    pred, target = Tensor(np.array([2.0])), Tensor(np.array([0.0]))
    unweighted = charbonnier(pred, target).item()
    weighted = charbonnier(pred, target, weight=3.0).item()
    assert weighted == pytest.approx(3 * unweighted)


# -------------------------------------------------------------------- optimisers
def _fit(optimizer_factory, epochs=200):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (128, 2))
    y = (2 * X[:, :1] - 0.5 * X[:, 1:]) + 0.1
    net = mlp([2, 16, 1], rng=1)
    opt = optimizer_factory(net.parameters())
    loss_value = None
    for _ in range(epochs):
        opt.zero_grad()
        loss = ((net(Tensor(X)) - Tensor(y)) ** 2).mean()
        loss.backward()
        opt.step()
        loss_value = loss.item()
    return loss_value


def test_adam_reduces_loss():
    assert _fit(lambda p: Adam(p, lr=1e-2)) < 5e-3


def test_optimizer_validation():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)
    with pytest.raises(ValueError):
        Adam([Parameter(np.zeros(2))], lr=-1)
    with pytest.raises(ValueError):
        Adam([Parameter(np.zeros(2))], lr=0.1, betas=(1.5, 0.999))


def test_clip_grad_norm():
    p = Parameter(np.zeros(3))
    p.grad = np.array([3.0, 4.0, 0.0])
    norm = clip_grad_norm([p], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        clip_grad_norm([p], max_norm=0.0)


def test_adam_weight_decay_shrinks_weights():
    p = Parameter(np.ones(2) * 10)
    opt = Adam([p], lr=0.1, weight_decay=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.all(np.abs(p.data) < 10)


# -------------------------------------------------------------------- schedulers
def test_step_lr_schedule():
    opt = Adam([Parameter(np.zeros(1))], lr=1.0)
    sched = StepLR(opt, step_size=2, gamma=0.5)
    lrs = [sched.step() for _ in range(4)]
    assert lrs == [1.0, 0.5, 0.5, 0.25]


def test_scheduler_validation():
    opt = Adam([Parameter(np.zeros(1))], lr=1.0)
    with pytest.raises(ValueError):
        StepLR(opt, step_size=0)
