"""Artifact round-trip and ``nn/serialization`` coverage.

The key guarantee: an engine reloaded from disk serves what the original
engine served *bit for bit* (the retrieval table is stored at full
precision), so a deployment can be reconstructed without retraining and
without numerical drift.  An artifact of the old layout, which stored network
weights instead of the table, is refused with a request to retrain.
"""

import copy

import numpy as np
import pytest

from reference.faults import corrupt_artifact_bytes
from repro.data import TASK_NAMES
from repro.engine import (
    ARTIFACT_VERSION,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMismatchError,
    WarmStartEngine,
    case_fingerprint,
    load_artifact,
    save_artifact,
)
from repro.parallel import generate_scenarios
from repro.nn.serialization import (
    CHECKSUM_KEY,
    BundleIntegrityError,
    load_bundle,
    save_bundle,
)


@pytest.fixture(scope="module")
def engine9(trained_trainer9):
    return WarmStartEngine.from_trainer(trained_trainer9)


#: ``opf_options`` as artifacts stored it before the OPF problem was fixed:
#: ``flow_limits`` and ``init`` beside all thirteen MIPS fields, at their
#: defaults.
LEGACY_OPF_OPTIONS = {
    "flow_limits": "S",
    "init": "case",
    "mips": {
        "feastol": 1e-6,
        "gradtol": 1e-6,
        "comptol": 1e-6,
        "costtol": 1e-6,
        "max_it": 150,
        "xi": 0.99995,
        "sigma": 0.1,
        "z0": 1.0,
        "cost_mult": 1.0,
        "bound_eq_tol": 1e-10,
        "max_stepsize": 1e10,
        "record_history": True,
        "verbose": False,
    },
}


def _legacy_artifact(path, tmp_path, name, opf_options):
    """A copy of the artifact at ``path`` storing ``opf_options``."""
    arrays, meta = load_bundle(path)
    meta["opf_options"] = opf_options
    return save_bundle(tmp_path / f"{name}.npz", arrays, meta)


# ------------------------------------------------------------- nn/serialization
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
    """A v2 artifact serves bitwise what the engine that saved it served."""
    path = save_artifact(engine9, tmp_path / "engine.npz")
    reloaded = load_artifact(path, case9_fixture)

    inputs = dataset9.inputs
    original = engine9.predict_physical(inputs)
    restored = reloaded.predict_physical(inputs)
    for task in original:
        np.testing.assert_array_equal(restored[task], original[task])

    # Identical warm starts from the reloaded engine.
    for warm_a, warm_b in zip(engine9.warm_starts_for(inputs), reloaded.warm_starts_for(inputs)):
        np.testing.assert_array_equal(warm_a.x, warm_b.x)
        np.testing.assert_array_equal(warm_a.lam, warm_b.lam)
        np.testing.assert_array_equal(warm_a.mu, warm_b.mu)
        np.testing.assert_array_equal(warm_a.z, warm_b.z)

    # … and identical answers.
    scenarios = generate_scenarios(case9_fixture, 4, variation=0.05, seed=17)
    with reloaded:
        served = reloaded.serve(scenarios).outcomes
    for got, want in zip(served, engine9.serve(scenarios).outcomes):
        assert (got.success, got.iterations) == (want.success, want.iterations)
        assert got.final_objective.hex() == want.final_objective.hex()


def test_artifact_restores_table_and_options(engine9, case9_fixture, tmp_path):
    """The artifact holds the table, the iteration cap and the fingerprint —
    no network, normalizer, MTL configuration or model type."""
    path = engine9.save_artifact(tmp_path / "engine.npz")
    arrays, meta = load_bundle(path)
    assert set(arrays) == {"starts/inputs", *(f"starts/{task}" for task in TASK_NAMES)}
    assert set(meta) == {"artifact_version", "case_name", "case_fingerprint", "opf_options"}
    assert meta["artifact_version"] == ARTIFACT_VERSION == 2
    reloaded = load_artifact(path, case9_fixture)
    np.testing.assert_array_equal(reloaded.starts.inputs, engine9.starts.inputs)
    for task, values in engine9.starts.targets.items():
        np.testing.assert_array_equal(reloaded.starts.targets[task], values)
    assert reloaded.opf_options == engine9.opf_options
    # Recovery is the fixed cold restart, so there is no policy to persist.
    assert "fallback" not in meta
    assert not hasattr(reloaded, "fallback")


def test_version_one_artifact_asks_for_a_retrain(engine9, case9_fixture, tmp_path):
    """A v1 artifact stored network weights, which no longer serve."""
    path = engine9.save_artifact(tmp_path / "engine.npz")
    _arrays, meta = load_bundle(path)
    meta.update(artifact_version=1, model_type="mtl", mtl_config={}, dims={})
    legacy = save_bundle(
        tmp_path / "v1.npz", {"param/trunk.0.weight": np.ones((2, 2))}, meta
    )
    with pytest.raises(ArtifactError, match="retrain"):
        load_artifact(legacy, case9_fixture)


def test_artifact_with_an_older_option_layout_raises(engine9, case9_fixture, tmp_path):
    """A version 2 artifact stores ``opf_options`` as ``{"max_it": n}``.  The
    layouts written before the OPF problem was fixed — thirteen MIPS fields
    nested under ``mips`` beside ``flow_limits`` and ``init``, older still
    with the KKT backend settings — never occur in one, so every key other
    than ``max_it`` is named in an ``ArtifactError``, at its old default
    value or not."""
    path = engine9.save_artifact(tmp_path / "engine.npz")
    assert load_bundle(path)[1]["opf_options"] == {"max_it": 150}
    layouts = {"nested": (LEGACY_OPF_OPTIONS, "flow_limits, init, mips")}
    for backend in ("factorized", "ldl"):
        stored = copy.deepcopy(LEGACY_OPF_OPTIONS)
        stored["mips"].update(kkt_reg=1e-6, kkt_max_retries=1, kkt_solver=backend)
        layouts[backend] = (stored, "mips")
    # Written while the backend was selectable and naming the SuperLU reference.
    reference = {"flow_limits": "S", "init": "case", "mips": {"kkt_solver": "factorized"}}
    layouts["reference-backend"] = (reference, "flow_limits, init, mips")
    for name, value in (("sigma", 0.1), ("xi", 0.99995), ("record_history", True),
                        ("kkt_solver", "ldl"), ("flow_limits", "S")):
        layouts[f"flat-{name}"] = ({"max_it": 150, name: value}, name)
    for name, (stored, named) in layouts.items():
        legacy = _legacy_artifact(path, tmp_path, name, stored)
        with pytest.raises(ArtifactError, match=named):
            load_artifact(legacy, case9_fixture)


@pytest.mark.parametrize("max_it", [0, 2.5, True, "150"])
def test_artifact_with_an_invalid_iteration_cap_raises_artifact_error(
    engine9, case9_fixture, tmp_path, max_it
):
    """A stored cap that ``MIPSOptions`` rejects is a malformed artifact; in
    the older nested layout the layout itself is the error."""
    path = engine9.save_artifact(tmp_path / "engine.npz")
    nested = copy.deepcopy(LEGACY_OPF_OPTIONS)
    nested["mips"]["max_it"] = max_it
    for name, stored, named in (("flat", {"max_it": max_it}, "max_it"), ("nested", nested, "mips")):
        legacy = _legacy_artifact(path, tmp_path, name, stored)
        with pytest.raises(ArtifactError, match=named):
            load_artifact(legacy, case9_fixture)


@pytest.mark.parametrize("budget", [None, 0.5])
def test_artifact_with_retired_wall_budget_raises(engine9, case9_fixture, tmp_path, budget):
    """Older artifacts persisted ``MIPSOptions.max_wall_seconds``; time bounds
    are per-call deadlines now, and a version 2 artifact never stores the
    key, so loading names it, set or not."""
    path = engine9.save_artifact(tmp_path / "engine.npz")
    assert "max_wall_seconds" not in load_bundle(path)[1]["opf_options"]
    legacy = _legacy_artifact(
        path, tmp_path, "legacy", {"max_it": 150, "max_wall_seconds": budget}
    )
    with pytest.raises(ArtifactError, match="max_wall_seconds"):
        load_artifact(legacy, case9_fixture)


@pytest.mark.parametrize("policy", ["relaxed_warm", "none"])
def test_artifact_with_legacy_fallback_policy_loads_and_serves(
    engine9, case9_fixture, tmp_path, policy
):
    """Older artifacts named their recovery policy; nothing reads the key,
    and the engine serves with the one recovery rule."""
    path = engine9.save_artifact(tmp_path / "engine.npz")
    arrays, meta = load_bundle(path)
    meta["fallback"] = policy
    legacy = save_bundle(tmp_path / f"{policy}.npz", arrays, meta)
    loads = case9_fixture.bus.Pd[None, :], case9_fixture.bus.Qd[None, :]
    with load_artifact(legacy, case9_fixture) as reloaded, load_artifact(path, case9_fixture) as current:
        assert reloaded.opf_options == engine9.opf_options
        (got,) = reloaded.serve_loads(*loads).outcomes
        (want,) = current.serve_loads(*loads).outcomes
    assert got.converged
    assert (got.success, got.iterations, got.used_fallback) == (
        want.success, want.iterations, want.used_fallback
    )
    assert got.final_objective.hex() == want.final_objective.hex()


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
