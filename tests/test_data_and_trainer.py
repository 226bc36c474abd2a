"""Tests of dataset generation and the MTL training loop."""

import numpy as np
import pytest

from repro.data import TASK_NAMES, generate_dataset
from repro.mtl import (
    MTLTrainer,
    SeparateTaskNetworks,
    SmartPGSimMTL,
    TaskDimensions,
    fast_config,
    warm_start_from_prediction,
)
from repro.opf import solve_opf


# ------------------------------------------------------------------------ dataset
def test_dataset_shapes_and_tasks(dataset9, case9_fixture):
    assert dataset9.n_samples == 24
    assert dataset9.inputs.shape == (24, 2 * case9_fixture.n_bus)
    assert set(dataset9.targets) == set(TASK_NAMES)
    assert dataset9.task_dim("Va") == 9
    assert dataset9.task_dim("lam") == 19
    assert dataset9.task_dim("mu") == dataset9.task_dim("z") == 48
    assert np.all(dataset9.iterations > 0)
    assert np.all(dataset9.solve_seconds > 0)


def test_dataset_inputs_are_pu_loads(dataset9, case9_fixture):
    Pd_pu = dataset9.inputs[:, : case9_fixture.n_bus]
    assert np.allclose(Pd_pu * case9_fixture.base_mva, dataset9.Pd_mw)


def test_dataset_targets_are_feasible_solutions(dataset9, case9_fixture):
    Vm = dataset9.targets["Vm"]
    assert np.all(Vm <= case9_fixture.bus.Vmax + 1e-6)
    assert np.all(Vm >= case9_fixture.bus.Vmin - 1e-6)
    assert np.all(dataset9.targets["z"] > 0)
    assert np.all(dataset9.targets["mu"] >= 0)


def test_dataset_split_and_subset(dataset9):
    train, val = dataset9.split(0.75, seed=3)
    assert train.n_samples + val.n_samples == dataset9.n_samples
    assert train.n_samples == int(round(0.75 * dataset9.n_samples))
    sub = dataset9.subset(np.array([0, 2, 4]))
    assert sub.n_samples == 3
    assert np.allclose(sub.inputs[1], dataset9.inputs[2])
    with pytest.raises(ValueError):
        dataset9.split(1.5)


def test_dataset_batches_cover_all_rows(dataset9):
    seen = np.concatenate(list(dataset9.batches(7, seed=0)))
    assert sorted(seen.tolist()) == list(range(dataset9.n_samples))
    with pytest.raises(ValueError):
        list(dataset9.batches(0))


def test_generate_dataset_deterministic(case9_fixture, opf_model9):
    a = generate_dataset(case9_fixture, 3, seed=5, model=opf_model9)
    b = generate_dataset(case9_fixture, 3, seed=5, model=opf_model9)
    assert np.allclose(a.inputs, b.inputs)
    assert np.allclose(a.targets["Pg"], b.targets["Pg"])


# ------------------------------------------------------------------------ trainer
def test_training_reduces_loss(dataset9, opf_model9):
    dims = TaskDimensions(9, 3, dataset9.task_dim("lam"), dataset9.task_dim("mu"))
    cfg = fast_config(epochs=12)
    net = SmartPGSimMTL(dims, cfg, seed=3)
    trainer = MTLTrainer(net, dataset9, opf_model9, config=cfg)
    history = trainer.train()
    losses = np.array([e.total_loss for e in history.epochs])
    assert losses.shape == (12,)
    assert losses[-1] < losses[0]
    assert history.train_seconds > 0


def test_trainer_detach_schedule_respected(dataset9, opf_model9, case9_fixture):
    dims = TaskDimensions(9, 3, dataset9.task_dim("lam"), dataset9.task_dim("mu"))
    cfg = fast_config(epochs=4, detach_period=2)
    net = SmartPGSimMTL(dims, cfg, seed=1)
    trainer = MTLTrainer(net, dataset9, opf_model9, config=cfg)
    history = trainer.train()
    detached = [e.detached for e in history.epochs]
    assert detached == [False, True, False, True]


def test_trainer_without_physics_has_zero_physics_loss(dataset9, opf_model9):
    dims = TaskDimensions(9, 3, dataset9.task_dim("lam"), dataset9.task_dim("mu"))
    cfg = fast_config(epochs=2, use_physics=False)
    net = SmartPGSimMTL(dims, cfg, seed=2)
    trainer = MTLTrainer(net, dataset9, opf_model9, config=cfg, use_physics=False)
    history = trainer.train()
    assert all(e.physics_loss == 0.0 for e in history.epochs)


def test_trainer_with_physics_records_terms(dataset9, opf_model9):
    dims = TaskDimensions(9, 3, dataset9.task_dim("lam"), dataset9.task_dim("mu"))
    cfg = fast_config(epochs=2, use_physics=True)
    net = SmartPGSimMTL(dims, cfg, seed=2)
    trainer = MTLTrainer(net, dataset9, opf_model9, config=cfg)
    history = trainer.train()
    assert set(history.epochs[0].physics_terms) == {"f_ac", "f_ieq", "f_cost", "f_lag"}
    assert history.epochs[0].physics_loss > 0


def test_trainer_works_with_separate_networks(dataset9, opf_model9):
    dims = TaskDimensions(9, 3, dataset9.task_dim("lam"), dataset9.task_dim("mu"))
    cfg = fast_config(epochs=3)
    net = SeparateTaskNetworks(dims, cfg, seed=0)
    trainer = MTLTrainer(net, dataset9, opf_model9, config=cfg)
    history = trainer.train()
    assert history.epochs[-1].total_loss < history.epochs[0].total_loss


def test_predict_physical_shapes_and_ranges(trained_trainer9, dataset9, case9_fixture):
    pred = trained_trainer9.predict_physical(dataset9.inputs[:5])
    assert pred["Vm"].shape == (5, 9)
    # Sigmoid heads + min-max denormalisation keep Vm inside the observed range.
    assert pred["Vm"].min() >= case9_fixture.bus.Vmin.min() - 1e-6
    assert pred["Vm"].max() <= case9_fixture.bus.Vmax.max() + 1e-6
    # Sigmoid heads keep Z inside the observed (non-negative) range up to the
    # tiny widening applied to constant dimensions by the normaliser.
    assert pred["z"].min() >= -1e-6


def test_evaluate_reports_all_tasks(trained_trainer9, dataset9):
    metrics = trained_trainer9.evaluate(dataset9)
    for task in TASK_NAMES:
        assert f"mae_{task}" in metrics
        assert np.isfinite(metrics[f"mae_{task}"])


def test_prediction_accuracy_reasonable(trained_trainer9, dataset9):
    """The trained model must track the main tasks well (Fig. 6 behaviour)."""
    metrics = trained_trainer9.evaluate(dataset9)
    assert metrics["rel_Vm"] < 0.05
    assert metrics["rel_Pg"] < 0.15


def test_warm_start_from_prediction_structure(trained_trainer9, opf_model9, dataset9):
    warm = trained_trainer9.warm_start_for(dataset9.inputs[0])
    assert warm.x.shape == (opf_model9.idx.nx,)
    assert warm.lam.shape == (19,)
    assert np.all(warm.mu > 0)
    assert np.all(warm.z > 0)


def test_warm_start_prediction_accelerates_solver(trained_trainer9, dataset9, case9_fixture, opf_model9):
    """The headline mechanism: warm-started solves need far fewer iterations."""
    warm_iters, cold_iters = [], []
    for i in range(min(6, dataset9.n_samples)):
        warm = trained_trainer9.warm_start_for(dataset9.inputs[i])
        res = solve_opf(
            case9_fixture,
            warm_start=warm,
            Pd_mw=dataset9.Pd_mw[i],
            Qd_mvar=dataset9.Qd_mw[i],
            model=opf_model9,
        )
        assert res.success
        warm_iters.append(res.iterations)
        cold_iters.append(dataset9.iterations[i])
    assert np.mean(warm_iters) < 0.6 * np.mean(cold_iters)


def test_warm_start_solution_preserves_optimality(trained_trainer9, dataset9, case9_fixture, opf_model9):
    i = 0
    warm = trained_trainer9.warm_start_for(dataset9.inputs[i])
    res = solve_opf(
        case9_fixture, warm_start=warm, Pd_mw=dataset9.Pd_mw[i], Qd_mvar=dataset9.Qd_mw[i], model=opf_model9
    )
    assert res.objective == pytest.approx(dataset9.objectives[i], rel=1e-5)


def test_warm_start_from_prediction_helper(opf_model9, dataset9):
    pred = {task: dataset9.targets[task][0] for task in TASK_NAMES}
    warm = warm_start_from_prediction(pred, opf_model9)
    assert np.allclose(warm.x[: 9], dataset9.targets["Va"][0])
