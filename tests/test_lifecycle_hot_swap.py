"""Zero-downtime hot-swap, shadow-gated promotion and circuit-breaker resets.

The acceptance bar for the swap is *bitwise purity*: with a swap racing live
serving, every request's outcome must equal what a pure-old or pure-new engine
would have produced — never a hybrid — and no request may be dropped.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import (
    ArtifactCorruptError,
    CircuitBreaker,
    DriftMonitor,
    ModelLifecycle,
    ShadowGate,
    ShadowMetrics,
    WarmStartEngine,
)
from repro.mtl import MTLTrainer, SmartPGSimMTL, TaskDimensions, fast_config
from repro.parallel import generate_scenarios
from reference.faults import corrupt_artifact_bytes, swap_fault
from repro.testing.faults import LifecycleFaultPlan, SwapFaultSpec


@pytest.fixture(scope="module")
def weak_trainer9(case9_fixture, opf_model9, dataset9):
    """A barely-trained incumbent (the model drift would leave us with)."""
    train, _val = dataset9.split(0.8, seed=0)
    dims = TaskDimensions(
        n_bus=case9_fixture.n_bus,
        n_gen=case9_fixture.n_gen,
        n_eq=dataset9.task_dim("lam"),
        n_ineq=dataset9.task_dim("mu"),
    )
    config = fast_config(epochs=2)
    network = SmartPGSimMTL(dims, config, seed=1)
    trainer = MTLTrainer(network, train, opf_model9, config=config)
    trainer.train()
    return trainer


def _pure_outcomes(trainer, scenarios):
    """Reference outcomes of a standalone engine around one model."""
    engine = WarmStartEngine.from_trainer(trainer)
    try:
        sweep = engine.serve(scenarios)
    finally:
        engine.close()
    return {
        o.scenario_id: (o.iterations, o.objective, o.used_fallback)
        for o in sweep.outcomes
    }


def _sweep_signature(sweep):
    return {
        o.scenario_id: (o.iterations, o.objective, o.used_fallback)
        for o in sweep.outcomes
    }


# ------------------------------------------------------------------- hot swap
def test_hot_swap_publishes_new_generation(weak_trainer9, trained_trainer9, dataset9):
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    try:
        assert engine.generation == 0
        before = engine.predict_physical(dataset9.inputs[:2])
        gen = engine.hot_swap(
            trained_trainer9.network, trained_trainer9.normalizer, trained_trainer9.config
        )
        assert gen == 1 and engine.generation == 1
        after = engine.predict_physical(dataset9.inputs[:2])
        reference = trained_trainer9.predict_physical(dataset9.inputs[:2])
        for task in reference:
            np.testing.assert_array_equal(after[task], reference[task])
        assert any(
            not np.array_equal(before[task], after[task]) for task in reference
        ), "swap must actually change the served model"
    finally:
        engine.close()


def test_hot_swap_resets_health_machinery(weak_trainer9, trained_trainer9):
    breaker = CircuitBreaker(window=4, threshold=0.5, min_observations=2, cooldown=8)
    monitor = DriftMonitor()
    engine = WarmStartEngine.from_trainer(
        weak_trainer9, breaker=breaker, drift_monitor=monitor
    )
    try:
        for _ in range(4):
            breaker.record(True)
        monitor.observe({"iterations": 50.0, "used_fallback": 1.0, "timed_out": 0.0})
        assert breaker.state == CircuitBreaker.OPEN and breaker.trips == 1
        engine.hot_swap(
            trained_trainer9.network, trained_trainer9.normalizer, trained_trainer9.config
        )
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips == 1  # cumulative telemetry survives
        assert monitor.n_observations == 0
        assert engine.drift_report().status == "stationary"
    finally:
        engine.close()


def test_serve_stamps_generation_and_swap_is_pure(
    weak_trainer9, trained_trainer9, case9_fixture
):
    """Sequential swap: sweeps before/after match the pure reference engines."""
    scenarios = generate_scenarios(case9_fixture, 4, variation=0.05, seed=21)
    pure_old = _pure_outcomes(weak_trainer9, scenarios)
    pure_new = _pure_outcomes(trained_trainer9, scenarios)
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    try:
        old_sweep = engine.serve(scenarios)
        assert old_sweep.model_generation == 0
        assert _sweep_signature(old_sweep) == pure_old
        engine.hot_swap(
            trained_trainer9.network, trained_trainer9.normalizer, trained_trainer9.config
        )
        new_sweep = engine.serve(scenarios)
        assert new_sweep.model_generation == 1
        assert _sweep_signature(new_sweep) == pure_new
    finally:
        engine.close()


def test_concurrent_swap_yields_pure_generations_and_drops_nothing(
    weak_trainer9, trained_trainer9, case9_fixture
):
    """Chaos: hot-swap races a serving loop; every request is pure, none lost."""
    scenarios = generate_scenarios(case9_fixture, 3, variation=0.05, seed=22)
    pure = {
        0: _pure_outcomes(weak_trainer9, scenarios),
        1: _pure_outcomes(trained_trainer9, scenarios),
    }
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    sweeps, errors = [], []
    n_requests = 12
    swap_gate = threading.Event()

    def hammer():
        try:
            for i in range(n_requests):
                sweeps.append(engine.serve(scenarios))
                if i == 2:
                    swap_gate.set()  # let the swap race the remaining requests
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    try:
        server = threading.Thread(target=hammer)
        server.start()
        assert swap_gate.wait(timeout=60)
        engine.hot_swap(
            trained_trainer9.network, trained_trainer9.normalizer, trained_trainer9.config
        )
        server.join(timeout=120)
        assert not server.is_alive() and not errors
        assert len(sweeps) == n_requests, "no request may be dropped across the swap"
        generations = [s.model_generation for s in sweeps]
        assert set(generations) <= {0, 1}
        assert generations == sorted(generations), "generation is monotonic per request"
        assert generations[-1] == 1, "requests after the swap serve the new model"
        for sweep in sweeps:
            assert len(sweep.outcomes) == len(scenarios)
            assert _sweep_signature(sweep) == pure[sweep.model_generation], (
                "request outcomes must be bitwise pure-old or pure-new, never hybrid"
            )
    finally:
        engine.close()


# ------------------------------------------------------------- adopt_artifact
def test_adopt_artifact_swaps_to_persisted_model(
    weak_trainer9, trained_trainer9, tmp_path
):
    candidate = WarmStartEngine.from_trainer(trained_trainer9)
    path = candidate.save_artifact(tmp_path / "candidate.npz")
    candidate.close()
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    try:
        assert engine.adopt_artifact(path) == 1
        reference = trained_trainer9.predict_physical(weak_trainer9.dataset.inputs[:2])
        served = engine.predict_physical(weak_trainer9.dataset.inputs[:2])
        for task in reference:
            np.testing.assert_array_equal(served[task], reference[task])
    finally:
        engine.close()


def test_adopt_corrupt_artifact_leaves_incumbent_untouched(
    weak_trainer9, trained_trainer9, tmp_path
):
    candidate = WarmStartEngine.from_trainer(trained_trainer9)
    path = candidate.save_artifact(tmp_path / "candidate.npz")
    candidate.close()
    corrupt_artifact_bytes(path)
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    try:
        before = engine.predict_physical(weak_trainer9.dataset.inputs[:2])
        with pytest.raises(ArtifactCorruptError):
            engine.adopt_artifact(path)
        assert engine.generation == 0
        after = engine.predict_physical(weak_trainer9.dataset.inputs[:2])
        for task in before:
            np.testing.assert_array_equal(before[task], after[task])
    finally:
        engine.close()


# ------------------------------------------------------------------ shadow gate
def test_shadow_gate_decides_on_every_axis():
    gate = ShadowGate(min_problems=4)
    incumbent = ShadowMetrics(
        n_problems=8, convergence_rate=1.0, fallback_rate=0.25, mean_iterations=12.0
    )
    better = ShadowMetrics(
        n_problems=8, convergence_rate=1.0, fallback_rate=0.0, mean_iterations=9.0
    )
    assert gate.decide(better, incumbent).passed

    worse_fallback = ShadowMetrics(
        n_problems=8, convergence_rate=1.0, fallback_rate=0.5, mean_iterations=9.0
    )
    verdict = gate.decide(worse_fallback, incumbent)
    assert not verdict.passed and any("fallback rate" in r for r in verdict.reasons)

    worse_iters = ShadowMetrics(
        n_problems=8, convergence_rate=1.0, fallback_rate=0.0, mean_iterations=20.0
    )
    verdict = gate.decide(worse_iters, incumbent)
    assert not verdict.passed and any("iterations" in r for r in verdict.reasons)

    non_converging = ShadowMetrics(
        n_problems=8, convergence_rate=0.5, fallback_rate=0.0, mean_iterations=9.0
    )
    verdict = gate.decide(non_converging, incumbent)
    assert not verdict.passed and any("convergence" in r for r in verdict.reasons)

    tiny_slice = ShadowMetrics(
        n_problems=2, convergence_rate=1.0, fallback_rate=0.0, mean_iterations=9.0
    )
    verdict = gate.decide(tiny_slice, incumbent)
    assert not verdict.passed and any("slice" in r for r in verdict.reasons)

    # Slack loosens the gate.
    assert ShadowGate(
        min_problems=4, fallback_rate_slack=0.5, iteration_slack=1.0
    ).decide(worse_fallback, incumbent).passed

    with pytest.raises(ValueError):
        ShadowGate(min_problems=0)
    with pytest.raises(ValueError):
        ShadowGate(iteration_slack=-0.1)


# -------------------------------------------------------------- full lifecycle
@pytest.fixture()
def lifecycle9(weak_trainer9, trained_trainer9):
    """A lifecycle around a weak incumbent with the strong model as trainer."""
    engine = WarmStartEngine.from_trainer(weak_trainer9, drift_monitor=DriftMonitor())
    lifecycle = ModelLifecycle(
        engine,
        trainer=trained_trainer9,
        gate=ShadowGate(min_problems=2, fallback_rate_slack=1.0, iteration_slack=10.0),
    )
    yield lifecycle
    engine.close()


def test_lifecycle_promotes_candidate_end_to_end(lifecycle9, dataset9, tmp_path):
    path = lifecycle9.build_candidate(tmp_path / "candidate.npz")
    shadow = lifecycle9.shadow_evaluate(path, dataset9, max_problems=4)
    assert shadow.passed and shadow.candidate.n_problems == 4
    assert lifecycle9.engine.generation == 0  # shadow eval alone never swaps

    result = lifecycle9.promote(path, dataset9, max_problems=4)
    assert result.promoted and result.stage == "publish"
    assert result.generation == 1 == lifecycle9.engine.generation
    assert result.shadow is not None and result.shadow.passed
    assert lifecycle9.promotions and not lifecycle9.rejections
    # The promoted engine serves the trainer's model bitwise.
    reference = lifecycle9.trainer.predict_physical(dataset9.inputs[:2])
    served = lifecycle9.engine.predict_physical(dataset9.inputs[:2])
    for task in reference:
        np.testing.assert_array_equal(served[task], reference[task])
    assert json_roundtrips(result.to_dict())


def json_roundtrips(payload):
    import json

    return json.loads(json.dumps(payload)) == payload


def test_lifecycle_rejects_candidate_failing_the_gate(
    lifecycle9, dataset9, tmp_path
):
    lifecycle9.gate = ShadowGate(min_problems=50)  # stricter than the slice
    path = lifecycle9.build_candidate(tmp_path / "candidate.npz")
    result = lifecycle9.promote(path, dataset9, max_problems=4)
    assert not result.promoted and result.stage == "shadow"
    assert "shadow gate" in result.reason
    assert lifecycle9.engine.generation == 0
    assert lifecycle9.rejections == [result]
    # Loosen the gate and replay the same candidate from disk.
    lifecycle9.gate = ShadowGate(min_problems=2, fallback_rate_slack=1.0, iteration_slack=10.0)
    replay = lifecycle9.replay_rejected(dataset9, max_problems=4)
    assert replay.promoted and replay.artifact_path == result.artifact_path
    assert lifecycle9.engine.generation == 1


def test_lifecycle_rejects_corrupt_candidate(lifecycle9, dataset9, tmp_path):
    path = lifecycle9.build_candidate(tmp_path / "candidate.npz")
    corrupt_artifact_bytes(path)
    result = lifecycle9.promote(path, dataset9, max_problems=4)
    assert not result.promoted and result.stage == "load"
    assert "ArtifactCorruptError" in result.reason
    assert lifecycle9.engine.generation == 0


def test_lifecycle_publish_fault_is_transient_and_replayable(
    weak_trainer9, trained_trainer9, dataset9, case9_fixture, tmp_path
):
    """A kill at the publish boundary rejects cleanly; the replay promotes."""
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    lifecycle = ModelLifecycle(
        engine,
        trainer=trained_trainer9,
        gate=ShadowGate(min_problems=2, fallback_rate_slack=1.0, iteration_slack=10.0),
        faults=LifecycleFaultPlan.of(swap_fault("publish", last_attempt=0)),
    )
    scenarios = generate_scenarios(case9_fixture, 3, variation=0.05, seed=23)
    pure_old = _pure_outcomes(weak_trainer9, scenarios)
    try:
        path = lifecycle.build_candidate(tmp_path / "candidate.npz")
        result = lifecycle.promote(path, dataset9, max_problems=4)
        assert not result.promoted and result.stage == "publish"
        assert "injected swap fault" in result.reason
        assert engine.generation == 0
        # The incumbent keeps serving, bitwise unchanged, after the failed swap.
        sweep = engine.serve(scenarios)
        assert sweep.model_generation == 0
        assert _sweep_signature(sweep) == pure_old
        # The fault was transient (attempt 0 only): replay promotes.
        replay = lifecycle.replay_rejected(dataset9, max_problems=4)
        assert replay.promoted and engine.generation == 1
    finally:
        engine.close()


def test_lifecycle_mid_swap_fault_with_live_traffic(
    weak_trainer9, trained_trainer9, dataset9, case9_fixture, tmp_path
):
    """Chaos: promotion dies at the publish boundary while traffic is flowing."""
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    lifecycle = ModelLifecycle(
        engine,
        trainer=trained_trainer9,
        gate=ShadowGate(min_problems=2, fallback_rate_slack=1.0, iteration_slack=10.0),
        faults=LifecycleFaultPlan.of(swap_fault("publish")),
    )
    scenarios = generate_scenarios(case9_fixture, 3, variation=0.05, seed=24)
    pure_old = _pure_outcomes(weak_trainer9, scenarios)
    sweeps, errors = [], []
    n_requests = 8

    def hammer():
        try:
            for _ in range(n_requests):
                sweeps.append(engine.serve(scenarios))
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    try:
        path = lifecycle.build_candidate(tmp_path / "candidate.npz")
        server = threading.Thread(target=hammer)
        server.start()
        result = lifecycle.promote(path, dataset9, max_problems=4)
        server.join(timeout=120)
        assert not server.is_alive() and not errors
        assert not result.promoted and result.stage == "publish"
        assert len(sweeps) == n_requests
        for sweep in sweeps:
            assert sweep.model_generation == 0
            assert _sweep_signature(sweep) == pure_old
    finally:
        engine.close()


def test_lifecycle_fault_plan_validation():
    with pytest.raises(ValueError, match="stage"):
        SwapFaultSpec(stage="reticulate")
    with pytest.raises(ValueError, match="first_attempt"):
        SwapFaultSpec(stage="publish", first_attempt=-1)
    with pytest.raises(ValueError, match="last_attempt"):
        SwapFaultSpec(stage="publish", first_attempt=2, last_attempt=1)
    plan = LifecycleFaultPlan.of(swap_fault("shadow", first_attempt=1))
    plan.check("shadow", 0)  # before first_attempt: no fault
    plan.check("publish", 1)  # other stage: no fault
    with pytest.raises(Exception, match="injected swap fault"):
        plan.check("shadow", 1)
    assert not LifecycleFaultPlan.none()


def test_lifecycle_without_trainer_rejects_training_calls(weak_trainer9, dataset9):
    engine = WarmStartEngine.from_trainer(weak_trainer9)
    lifecycle = ModelLifecycle(engine)
    try:
        with pytest.raises(ValueError, match="trainer"):
            lifecycle.retrain()
        with pytest.raises(ValueError, match="trainer"):
            lifecycle.build_candidate("unused.npz")
        with pytest.raises(ValueError, match="replay"):
            lifecycle.replay_rejected(dataset9)
    finally:
        engine.close()


def test_retrain_recommended_follows_drift_monitor(weak_trainer9):
    monitor = DriftMonitor()
    engine = WarmStartEngine.from_trainer(weak_trainer9, drift_monitor=monitor)
    lifecycle = ModelLifecycle(engine)
    try:
        assert not lifecycle.retrain_recommended()
        for i in range(100):
            monitor.observe(
                {"iterations": 8.0 + 2.0 * i, "used_fallback": 0.0, "timed_out": 0.0}
            )
        assert lifecycle.retrain_recommended()
    finally:
        engine.close()


# ------------------------------------------------------- breaker state machine
def test_breaker_half_open_probe_closes_on_success():
    breaker = CircuitBreaker(window=8, threshold=0.5, min_observations=2, cooldown=3)
    breaker.record(True)
    breaker.record(True)
    assert breaker.state == CircuitBreaker.OPEN and breaker.trips == 1
    for _ in range(3):  # cooldown counts degraded requests
        assert not breaker.allow_warm()
        breaker.record(False)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow_warm()
    breaker.record(False)  # clean probe
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.health.n_observations == 0
    assert breaker.trips == 1


def test_breaker_half_open_probe_retrips_on_fallback():
    breaker = CircuitBreaker(window=8, threshold=0.5, min_observations=2, cooldown=2)
    breaker.record(True)
    breaker.record(True)
    breaker.record(False)
    breaker.record(False)
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.record(True)  # probe needed the fallback
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.trips == 2


def test_breaker_reset_closes_but_keeps_trip_telemetry():
    breaker = CircuitBreaker(window=8, threshold=0.5, min_observations=2, cooldown=4)
    breaker.record(True)
    breaker.record(True)
    assert breaker.state == CircuitBreaker.OPEN and breaker.trips == 1
    breaker.reset()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow_warm()
    assert breaker.health.n_observations == 0
    assert breaker.trips == 1
    # A reset breaker trips again from a clean slate (no stale cooldown).
    breaker.record(True)
    breaker.record(True)
    assert breaker.state == CircuitBreaker.OPEN and breaker.trips == 2
