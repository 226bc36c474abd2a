"""Artifact round-trip and ``nn/serialization`` coverage.

The key guarantee: an engine reloaded from disk reproduces the original
engine's predictions *bit for bit* (including the sigmoid-bounded ``z``/``µ``
heads and the normalizer statistics), so a deployment can be reconstructed
without retraining and without numerical drift.
"""

import numpy as np
import pytest

from repro.engine import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMismatchError,
    WarmStartEngine,
    case_fingerprint,
    load_artifact,
    save_artifact,
)
from repro.mtl import DatasetNormalizer, SeparateTaskNetworks, TaskDimensions, fast_config
from repro.nn.modules import Linear, Sequential
from repro.nn.serialization import (
    CHECKSUM_KEY,
    BundleIntegrityError,
    load_bundle,
    load_module,
    load_state_dict,
    save_bundle,
    save_module,
    save_state_dict,
)
from repro.testing.faults import corrupt_artifact_bytes


@pytest.fixture(scope="module")
def engine9(trained_trainer9):
    return WarmStartEngine.from_trainer(trained_trainer9, fallback="relaxed_warm")


# ------------------------------------------------------------- nn/serialization
def test_state_dict_roundtrip(tmp_path):
    module = Sequential(Linear(4, 8, rng=0), Linear(8, 2, rng=1))
    path = save_state_dict(module.state_dict(), tmp_path / "weights.npz")
    loaded = load_state_dict(path)
    assert set(loaded) == set(module.state_dict())
    for name, value in module.state_dict().items():
        np.testing.assert_array_equal(loaded[name], value)


def test_save_load_module_roundtrip(tmp_path):
    module = Sequential(Linear(3, 5, rng=0))
    path = save_module(module, tmp_path / "mod.npz")
    twin = Sequential(Linear(3, 5, rng=99))
    load_module(twin, path)
    np.testing.assert_array_equal(twin.state_dict()["layer0.weight"], module.state_dict()["layer0.weight"])


def test_bundle_roundtrip_and_reserved_key(tmp_path):
    arrays = {"a": np.arange(6, dtype=float).reshape(2, 3), "nested/b": np.ones(2)}
    meta = {"version": 1, "note": "hello", "weights": {"x": 0.5}}
    path = save_bundle(tmp_path / "bundle.npz", arrays, meta)
    loaded_arrays, loaded_meta = load_bundle(path)
    assert loaded_meta == meta
    assert set(loaded_arrays) == set(arrays)
    np.testing.assert_array_equal(loaded_arrays["nested/b"], arrays["nested/b"])
    with pytest.raises(ValueError):
        save_bundle(tmp_path / "bad.npz", {"__meta__": np.ones(1)}, {})


def test_load_bundle_rejects_plain_npz(tmp_path):
    np.savez(tmp_path / "plain.npz", a=np.ones(2))
    with pytest.raises(ValueError):
        load_bundle(tmp_path / "plain.npz")


# --------------------------------------------------------------- bundle integrity
def test_bundle_carries_verifiable_checksum(tmp_path):
    path = save_bundle(tmp_path / "b.npz", {"a": np.arange(4.0)}, {"v": 1})
    with np.load(path, allow_pickle=False) as data:
        assert CHECKSUM_KEY in data.files
    arrays, meta = load_bundle(path)  # verifies without raising
    assert CHECKSUM_KEY not in arrays and meta == {"v": 1}
    with pytest.raises(ValueError, match="reserved"):
        save_bundle(tmp_path / "bad.npz", {CHECKSUM_KEY: np.ones(1)}, {})


def test_corrupted_bundle_raises_integrity_error(tmp_path):
    path = save_bundle(
        tmp_path / "b.npz", {"a": np.arange(64.0), "b": np.ones((8, 8))}, {"v": 1}
    )
    corrupt_artifact_bytes(path)
    with pytest.raises(BundleIntegrityError):
        load_bundle(path)


def test_truncated_bundle_raises_integrity_error(tmp_path):
    path = save_bundle(tmp_path / "b.npz", {"a": np.arange(64.0)}, {"v": 1})
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(BundleIntegrityError):
        load_bundle(path)


# ------------------------------------------------------------ case fingerprints
def test_case_fingerprint_ignores_name_but_not_data(case9_fixture):
    renamed = case9_fixture.copy()
    renamed.name = "something-else"
    assert case_fingerprint(renamed) == case_fingerprint(case9_fixture)
    perturbed = case9_fixture.copy()
    perturbed.branch.x[0] *= 1.001
    assert case_fingerprint(perturbed) != case_fingerprint(case9_fixture)


# ------------------------------------------------------------ artifact roundtrip
def test_artifact_roundtrip_bit_identical(engine9, case9_fixture, dataset9, tmp_path):
    path = save_artifact(engine9, tmp_path / "engine.npz")
    reloaded = load_artifact(path, case9_fixture)

    inputs = dataset9.inputs
    original = engine9.predict_physical(inputs)
    restored = reloaded.predict_physical(inputs)
    for task in original:
        np.testing.assert_array_equal(restored[task], original[task])
    # The sigmoid-bounded z/µ heads must survive exactly: in normalised space
    # their outputs stay inside the hard [0, 1] box.
    norm_in = engine9.normalizer.normalize_inputs(inputs)
    for task in ("z", "mu"):
        norm_out = reloaded.network.predict(np.asarray(norm_in))[task]
        assert np.all(norm_out > 0.0) and np.all(norm_out < 1.0)

    # Identical warm starts from the reloaded engine.
    for warm_a, warm_b in zip(engine9.warm_starts_for(inputs), reloaded.warm_starts_for(inputs)):
        np.testing.assert_array_equal(warm_a.x, warm_b.x)
        np.testing.assert_array_equal(warm_a.lam, warm_b.lam)
        np.testing.assert_array_equal(warm_a.mu, warm_b.mu)
        np.testing.assert_array_equal(warm_a.z, warm_b.z)


def test_artifact_restores_normalizer_config_and_fallback(engine9, case9_fixture, tmp_path):
    path = engine9.save_artifact(tmp_path / "engine.npz")
    reloaded = WarmStartEngine.load_artifact(path, case9_fixture)
    np.testing.assert_array_equal(reloaded.normalizer.inputs.lo, engine9.normalizer.inputs.lo)
    np.testing.assert_array_equal(reloaded.normalizer.inputs.span, engine9.normalizer.inputs.span)
    for task, scaler in engine9.normalizer.tasks.items():
        np.testing.assert_array_equal(reloaded.normalizer.tasks[task].lo, scaler.lo)
        np.testing.assert_array_equal(reloaded.normalizer.tasks[task].span, scaler.span)
    assert reloaded.config == engine9.config
    assert reloaded.opf_options == engine9.opf_options
    assert reloaded.fallback.name == "relaxed_warm"
    # Deployment-time overrides win over the persisted policy, and an explicit
    # ``None`` means "no recovery" exactly as everywhere else in the API.
    assert WarmStartEngine.load_artifact(path, case9_fixture, fallback="none").fallback.name == "none"
    assert WarmStartEngine.load_artifact(path, case9_fixture, fallback=None).fallback.name == "none"


def test_artifact_written_before_option_removal_still_loads(engine9, case9_fixture, tmp_path):
    """Older artifacts persisted ``MIPSOptions.kkt_factor_threads`` and
    ``kkt_refine_steps``; the fields are gone, and their values never changed a
    result, so the keys are dropped on load.  A persisted retired SuperLU
    backend loads as the surviving one."""
    path = engine9.save_artifact(tmp_path / "engine.npz")
    arrays, meta = load_bundle(path)
    meta["opf_options"]["mips"]["kkt_factor_threads"] = 2
    meta["opf_options"]["mips"]["kkt_refine_steps"] = 0
    legacy = save_bundle(tmp_path / "legacy.npz", arrays, meta)
    reloaded = load_artifact(legacy, case9_fixture)
    assert reloaded.opf_options == engine9.opf_options
    for retired in ("blockdiag", "spsolve"):
        meta["opf_options"]["mips"]["kkt_solver"] = retired
        legacy = save_bundle(tmp_path / f"{retired}.npz", arrays, meta)
        with load_artifact(legacy, case9_fixture) as reloaded:
            assert reloaded.opf_options.mips.kkt_solver == "factorized"
            sweep = reloaded.serve_loads(case9_fixture.bus.Pd[None, :], case9_fixture.bus.Qd[None, :])
            assert sweep.outcomes[0].converged


def test_artifact_mismatched_case_raises(engine9, case14_fixture, tmp_path):
    path = save_artifact(engine9, tmp_path / "engine.npz")
    with pytest.raises(ArtifactMismatchError, match="fingerprint"):
        load_artifact(path, case14_fixture)


def test_artifact_rejects_non_artifact_file(case9_fixture, tmp_path):
    np.savez(tmp_path / "not_an_artifact.npz", a=np.ones(3))
    with pytest.raises(ArtifactError):
        load_artifact(tmp_path / "not_an_artifact.npz", case9_fixture)


def test_byte_corrupted_artifact_raises_typed_error(engine9, case9_fixture, tmp_path):
    """Flipped payload bytes surface as ArtifactCorruptError, not garbage."""
    path = save_artifact(engine9, tmp_path / "engine.npz")
    load_artifact(path, case9_fixture)  # healthy before corruption
    corrupt_artifact_bytes(path)
    with pytest.raises(ArtifactCorruptError):
        load_artifact(path, case9_fixture)
    # The typed error is still an ArtifactError (and distinct from a mismatch).
    assert issubclass(ArtifactCorruptError, ArtifactError)
    assert not issubclass(ArtifactCorruptError, ArtifactMismatchError)


def test_artifact_roundtrip_separate_networks(case9_fixture, dataset9, opf_model9, tmp_path):
    """The separate-networks baseline persists under its own model-type tag."""
    dims = TaskDimensions(
        n_bus=case9_fixture.n_bus,
        n_gen=case9_fixture.n_gen,
        n_eq=dataset9.task_dim("lam"),
        n_ineq=dataset9.task_dim("mu"),
    )
    config = fast_config(epochs=1)
    network = SeparateTaskNetworks(dims, config, seed=3)
    normalizer = DatasetNormalizer.fit(dataset9.inputs, dataset9.targets)
    engine = WarmStartEngine(
        case9_fixture, network, normalizer, config=config, opf_model=opf_model9
    )
    path = save_artifact(engine, tmp_path / "separate.npz")
    reloaded = load_artifact(path, case9_fixture, opf_model=opf_model9)
    assert isinstance(reloaded.network, SeparateTaskNetworks)
    original = engine.predict_physical(dataset9.inputs[:3])
    restored = reloaded.predict_physical(dataset9.inputs[:3])
    for task in original:
        np.testing.assert_array_equal(restored[task], original[task])


# ---------------------------------------------------------- crash-safe writes
def _aborting_savez(fh, **payload):
    """Stand-in for a process killed mid-write: partial bytes, then death."""
    fh.write(b"PK\x03\x04 partial archive torn off mid-write")
    raise KeyboardInterrupt("simulated kill during artifact save")


def test_aborted_save_never_corrupts_published_artifact(
    engine9, case9_fixture, tmp_path, monkeypatch
):
    """A write killed mid-save leaves the previously published artifact intact."""
    path = tmp_path / "live.npz"
    save_artifact(engine9, path)
    healthy = load_artifact(path, case9_fixture)
    expected = healthy.predict_physical(np.zeros((1, 2 * case9_fixture.n_bus)))

    import repro.nn.serialization as serialization

    monkeypatch.setattr(serialization.np, "savez", _aborting_savez)
    with pytest.raises(KeyboardInterrupt):
        save_artifact(engine9, path)
    monkeypatch.undo()

    # The published path still holds the old, fully intact artifact …
    reloaded = load_artifact(path, case9_fixture)
    served = reloaded.predict_physical(np.zeros((1, 2 * case9_fixture.n_bus)))
    for task in expected:
        np.testing.assert_array_equal(served[task], expected[task])
    # … and no temp debris was left next to it.
    assert [p.name for p in tmp_path.iterdir()] == ["live.npz"]


def test_aborted_save_of_new_artifact_leaves_no_file(
    engine9, tmp_path, monkeypatch
):
    """A first-time save killed mid-write publishes nothing at all."""
    import repro.nn.serialization as serialization

    path = tmp_path / "fresh.npz"
    monkeypatch.setattr(serialization.np, "savez", _aborting_savez)
    with pytest.raises(KeyboardInterrupt):
        save_artifact(engine9, path)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
