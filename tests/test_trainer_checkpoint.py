"""Checkpointed training: kill a run, resume it, get bitwise-identical results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mtl import MTLTrainer, SmartPGSimMTL, TaskDimensions, fast_config
from repro.nn.modules import Linear
from repro.nn.optim import Adam
from repro.nn.schedulers import StepLR
from repro.nn.serialization import load_bundle, save_bundle


def _dims(case, dataset):
    return TaskDimensions(
        n_bus=case.n_bus,
        n_gen=case.n_gen,
        n_eq=dataset.task_dim("lam"),
        n_ineq=dataset.task_dim("mu"),
    )


def _make_trainer(case, dataset, opf_model, epochs):
    config = fast_config(epochs=epochs)
    network = SmartPGSimMTL(_dims(case, dataset), config, seed=0)
    return MTLTrainer(network, dataset, opf_model, config=config)


# ---------------------------------------------------------- optimizer state dicts
def _step_linear(optimizer, module, rng):
    for p in module.parameters():
        p.grad = rng.standard_normal(p.data.shape)
    optimizer.step()


def test_adam_state_dict_resumes_bitwise(rng):
    a_mod, b_mod = Linear(4, 3, rng=7), Linear(4, 3, rng=7)
    a_opt, b_opt = Adam(a_mod.parameters(), lr=1e-2), Adam(b_mod.parameters(), lr=1e-2)
    grads = np.random.default_rng(0)
    for _ in range(5):
        g = np.random.default_rng(grads.integers(2**31))
        _step_linear(a_opt, a_mod, g)
    state = a_opt.state_dict()
    b_mod.load_state_dict(a_mod.state_dict())
    b_opt.load_state_dict(state)
    assert b_opt._t == a_opt._t
    follow = np.random.default_rng(99)
    for _ in range(3):
        seed = follow.integers(2**31)
        _step_linear(a_opt, a_mod, np.random.default_rng(seed))
        _step_linear(b_opt, b_mod, np.random.default_rng(seed))
    for pa, pb in zip(a_mod.parameters(), b_mod.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_adam_state_dict_is_a_copy():
    module = Linear(3, 2, rng=1)
    opt = Adam(module.parameters(), lr=1e-3)
    _step_linear(opt, module, np.random.default_rng(0))
    state = opt.state_dict()
    state["m"][0][:] = 1e9
    assert not np.any(opt._m[0] == 1e9)


def test_adam_state_dict_rejects_mismatched_slots():
    a_mod, b_mod = Linear(3, 2, rng=2), Linear(3, 2, rng=2)
    a_opt = Adam(a_mod.parameters(), lr=1e-2)
    _step_linear(a_opt, a_mod, np.random.default_rng(5))
    b_opt = Adam(b_mod.parameters(), lr=1e-2)
    wrong = a_opt.state_dict()
    wrong["m"] = wrong["m"][:-1]
    with pytest.raises(ValueError, match="entries"):
        b_opt.load_state_dict(wrong)
    bad_shape = a_opt.state_dict()
    bad_shape["v"][0] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape"):
        b_opt.load_state_dict(bad_shape)


def test_scheduler_state_dict_roundtrip():
    module = Linear(2, 2, rng=3)
    opt = Adam(module.parameters(), lr=1e-2)
    sched = StepLR(opt, step_size=2, gamma=0.5)
    for _ in range(3):
        sched.step()
    state = sched.state_dict()
    opt2 = Adam(Linear(2, 2, rng=3).parameters(), lr=1e-2)
    sched2 = StepLR(opt2, step_size=2, gamma=0.5)
    sched2.load_state_dict(state)
    assert sched2.epoch == 3 and sched2.base_lr == sched.base_lr
    assert sched2.step() == sched.step()


# ------------------------------------------------------------ trainer checkpoints
@pytest.fixture(scope="module")
def train_split9(dataset9):
    train, _val = dataset9.split(0.8, seed=0)
    return train


def test_checkpoint_resume_is_bitwise_identical(
    case9_fixture, opf_model9, train_split9, tmp_path
):
    """Kill at epoch 3 of 6, resume from the checkpoint → identical run."""
    ckpt = tmp_path / "trainer.ckpt.npz"

    straight = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=6)
    full_history = straight.train()

    killed = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=6)
    partial = killed.train(checkpoint_path=ckpt, checkpoint_every=3, until_epoch=3)
    assert len(partial.epochs) == 3
    assert ckpt.exists()

    resumed_trainer = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=6)
    resumed = resumed_trainer.train(resume_from=ckpt)
    assert [e.epoch for e in resumed.epochs] == [1, 2, 3, 4, 5, 6]

    # Loss trajectory (incl. the pre-kill tail restored from the checkpoint)
    # is bitwise identical to the uninterrupted run; wall-clock seconds differ.
    for a, b in zip(full_history.epochs, resumed.epochs):
        assert a.epoch == b.epoch and a.detached == b.detached
        assert a.total_loss == b.total_loss
        assert a.supervised_loss == b.supervised_loss
        assert a.physics_loss == b.physics_loss
        assert a.physics_terms == b.physics_terms
    # Final weights and optimizer state match bitwise too.
    for name, value in straight.network.state_dict().items():
        np.testing.assert_array_equal(value, resumed_trainer.network.state_dict()[name])
    assert straight.optimizer._t == resumed_trainer.optimizer._t
    for ma, mb in zip(straight.optimizer._m, resumed_trainer.optimizer._m):
        np.testing.assert_array_equal(ma, mb)


def test_checkpoint_restores_scheduler_position(
    case9_fixture, opf_model9, train_split9, tmp_path
):
    ckpt = tmp_path / "sched.ckpt.npz"
    straight = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=4)
    straight.scheduler = StepLR(straight.optimizer, step_size=1, gamma=0.5)
    full = straight.train()

    killed = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=4)
    killed.scheduler = StepLR(killed.optimizer, step_size=1, gamma=0.5)
    killed.train(checkpoint_path=ckpt, checkpoint_every=2, until_epoch=2)

    resumed_trainer = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=4)
    resumed_trainer.scheduler = StepLR(resumed_trainer.optimizer, step_size=1, gamma=0.5)
    resumed = resumed_trainer.train(resume_from=ckpt)
    assert resumed_trainer.scheduler.epoch == straight.scheduler.epoch
    assert resumed_trainer.optimizer.lr == straight.optimizer.lr
    for a, b in zip(full.epochs, resumed.epochs):
        assert a.total_loss == b.total_loss


def test_checkpoint_rejects_wrong_version(
    case9_fixture, opf_model9, train_split9, tmp_path
):
    ckpt = tmp_path / "versioned.ckpt.npz"
    trainer = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=2)
    trainer.train(checkpoint_path=ckpt, checkpoint_every=1, until_epoch=1)
    arrays, meta = load_bundle(ckpt)
    meta["checkpoint_version"] = 999
    save_bundle(ckpt, arrays, meta)
    fresh = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=2)
    with pytest.raises(ValueError, match="version"):
        fresh.train(resume_from=ckpt)


def test_checkpoint_written_only_on_schedule(
    case9_fixture, opf_model9, train_split9, tmp_path
):
    ckpt = tmp_path / "never.ckpt.npz"
    trainer = _make_trainer(case9_fixture, train_split9, opf_model9, epochs=2)
    trainer.train(checkpoint_path=ckpt, checkpoint_every=0)  # disabled
    assert not ckpt.exists()
