"""Tests of the MTL model topology, the separate-networks baseline and normalisation."""

import numpy as np
import pytest

from repro.mtl import (
    DatasetNormalizer,
    MinMaxScaler,
    MTLConfig,
    SeparateTaskNetworks,
    SmartPGSimMTL,
    TaskDimensions,
    fast_config,
)
from repro.nn import Tensor

DIMS = TaskDimensions(n_bus=9, n_gen=3, n_eq=19, n_ineq=48)


# -------------------------------------------------------------------- normalisation
def test_minmax_scaler_roundtrip(rng):
    data = rng.uniform(-5, 10, size=(40, 6))
    scaler = MinMaxScaler.fit(data)
    normed = scaler.transform(data)
    assert normed.min() >= -1e-12 and normed.max() <= 1 + 1e-12
    assert np.allclose(scaler.inverse(normed), data)


def test_minmax_scaler_handles_constant_dimension():
    data = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    scaler = MinMaxScaler.fit(data)
    normed = scaler.transform(data)
    assert np.allclose(normed[:, 0], 0.5)
    assert np.allclose(scaler.inverse(normed), data)


def test_minmax_scaler_works_on_tensors(rng):
    data = rng.uniform(0, 1, size=(10, 3))
    scaler = MinMaxScaler.fit(data)
    t = Tensor(data, requires_grad=True)
    out = scaler.transform(t)
    assert isinstance(out, Tensor)
    back = scaler.inverse(out)
    assert np.allclose(back.data, data)


def test_minmax_scaler_rejects_1d():
    with pytest.raises(ValueError):
        MinMaxScaler.fit(np.arange(5.0))


def test_dataset_normalizer_roundtrip(dataset9):
    norm = DatasetNormalizer.fit(dataset9.inputs, dataset9.targets)
    normed = norm.normalize_targets(dataset9.targets)
    for task, values in normed.items():
        assert values.min() >= -1e-9 and values.max() <= 1 + 1e-9
        restored = norm.denormalize_task(task, values)
        assert np.allclose(restored, dataset9.targets[task], atol=1e-9)


# ------------------------------------------------------------------------ config
def test_config_validation():
    MTLConfig().validate()
    with pytest.raises(ValueError):
        MTLConfig(shared_layer_scales=()).validate()
    with pytest.raises(ValueError):
        MTLConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        MTLConfig(task_weights={"Va": 1.0}).validate()
    with pytest.raises(ValueError):
        MTLConfig(width_cap=2).validate()


def test_fast_config_is_small_and_valid():
    cfg = fast_config()
    cfg.validate()
    assert cfg.width_cap <= 64
    assert cfg.epochs <= 30


# -------------------------------------------------------------------------- model
def test_task_dimensions_mapping():
    d = DIMS.as_dict()
    assert d["Va"] == 9 and d["Pg"] == 3 and d["lam"] == 19 and d["mu"] == 48
    assert DIMS.n_inputs == 18


def test_mtl_forward_shapes():
    model = SmartPGSimMTL(DIMS, fast_config(), seed=0)
    out = model(Tensor(np.random.default_rng(0).uniform(0, 1, (5, 18))))
    assert set(out) == {"Va", "Vm", "Pg", "Qg", "lam", "z", "mu"}
    assert out["Va"].shape == (5, 9)
    assert out["mu"].shape == (5, 48)


def test_mtl_positive_heads_are_bounded():
    model = SmartPGSimMTL(DIMS, fast_config(), seed=1)
    out = model.predict(np.random.default_rng(1).uniform(0, 1, (7, 18)))
    for task in ("Vm", "Pg", "Qg", "z", "mu"):
        assert out[task].min() >= 0.0
        assert out[task].max() <= 1.0


def test_mtl_detach_blocks_trunk_gradients():
    model = SmartPGSimMTL(DIMS, fast_config(), seed=2)
    x = Tensor(np.random.default_rng(2).uniform(0, 1, (4, 18)))

    # Auxiliary-only loss with detach: trunk receives no gradient.
    out = model(x, detach_auxiliary=True)
    (out["lam"].sum() + out["z"].sum() + out["mu"].sum()).backward()
    trunk_grads = [p.grad for p in model.trunk.parameters()]
    assert all(g is None for g in trunk_grads)

    # Same loss without detach: trunk does receive gradients.
    model.zero_grad()
    out = model(x, detach_auxiliary=False)
    (out["lam"].sum() + out["z"].sum() + out["mu"].sum()).backward()
    trunk_grads = [p.grad for p in model.trunk.parameters()]
    assert any(g is not None and np.abs(g).sum() > 0 for g in trunk_grads)


def test_mtl_hierarchy_z_depends_on_x_head():
    """Perturbing only the Vm head weights must change the Z prediction (hierarchy)."""
    model = SmartPGSimMTL(DIMS, fast_config(), seed=3)
    x = np.random.default_rng(3).uniform(0, 1, (2, 18))
    z_before = model.predict(x)["z"]
    last_linear = [m for m in model.head_Vm.modules() if hasattr(m, "weight")][-1]
    last_linear.weight.data = last_linear.weight.data + 0.5
    z_after = model.predict(x)["z"]
    assert not np.allclose(z_before, z_after)


def test_mtl_parameter_budget_scales_with_width_cap():
    # The case9 input is 18-wide, so a cap of 16 actually binds while 64 does not.
    small = SmartPGSimMTL(DIMS, fast_config(width_cap=16), seed=0)
    large = SmartPGSimMTL(DIMS, fast_config(width_cap=64), seed=0)
    assert large.n_parameters() > small.n_parameters()


def test_mtl_deterministic_given_seed():
    a = SmartPGSimMTL(DIMS, fast_config(), seed=7)
    b = SmartPGSimMTL(DIMS, fast_config(), seed=7)
    x = np.random.default_rng(0).uniform(0, 1, (3, 18))
    assert np.allclose(a.predict(x)["Va"], b.predict(x)["Va"])


# --------------------------------------------------------------- separate baseline
def test_separate_networks_shapes_and_independence():
    model = SeparateTaskNetworks(DIMS, fast_config(), seed=0)
    out = model.predict(np.random.default_rng(0).uniform(0, 1, (3, 18)))
    assert out["Qg"].shape == (3, 3)
    # Perturbing the Va network must not change the Vm prediction.
    vm_before = out["Vm"]
    trunk_va = getattr(model, "trunk_Va")
    for p in trunk_va.parameters():
        p.data = p.data + 1.0
    vm_after = model.predict(np.random.default_rng(0).uniform(0, 1, (3, 18)))["Vm"]
    assert np.allclose(vm_before, vm_after)


def test_separate_networks_have_one_private_trunk_per_task():
    sep = SeparateTaskNetworks(DIMS, fast_config(), seed=0)
    names = [name for name, _ in sep.named_parameters()]
    for task in ("Va", "Vm", "Pg", "Qg", "lam", "z", "mu"):
        assert any(name.startswith(f"trunk_{task}.") for name in names)
        assert any(name.startswith(f"head_{task}.") for name in names)
