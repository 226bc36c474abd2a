"""Engine artifacts: one-file persistence of a trained serving engine.

An artifact is a single ``.npz`` bundle (see :mod:`repro.nn.serialization`)
holding

* the prediction network's parameters (full ``float64`` precision, so a
  reloaded engine reproduces its predictions bit for bit),
* the :class:`~repro.mtl.normalization.DatasetNormalizer` statistics,
* the :class:`~repro.mtl.config.MTLConfig`, task dimensions, model type and
  solver options, and
* a SHA-256 **fingerprint of the power-grid case** the model was trained on.

Loading verifies the fingerprint against the case the caller supplies: a
model trained on one network topology produces meaningless warm starts for
another, so a mismatch raises :class:`ArtifactMismatchError` instead of
silently serving garbage.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.engine.engine import PERSISTED_FALLBACK, WarmStartEngine
from repro.engine.fallback import get_fallback_policy
from repro.grid.components import Case
from repro.mips.options import MIPSOptions
from repro.mtl.config import MTLConfig
from repro.mtl.model import SmartPGSimMTL, TaskDimensions
from repro.mtl.normalization import DatasetNormalizer, MinMaxScaler
from repro.mtl.separate import SeparateTaskNetworks
from repro.nn.serialization import BundleIntegrityError, load_bundle, save_bundle
from repro.opf.model import OPFModel
from repro.opf.options import OPFOptions

#: Bumped on incompatible layout changes.
ARTIFACT_VERSION = 1

#: Persisted model-type tags → network classes.
_MODEL_TYPES = {"mtl": SmartPGSimMTL, "separate": SeparateTaskNetworks}

_PARAM_PREFIX = "param/"
_NORM_INPUT_PREFIX = "norm/inputs/"
_NORM_TASK_PREFIX = "norm/tasks/"


class ArtifactError(ValueError):
    """Malformed or unreadable engine artifact."""


class ArtifactMismatchError(ArtifactError):
    """The artifact was trained on a different case than the one supplied."""


class ArtifactCorruptError(ArtifactError):
    """The artifact file is damaged (bad archive or checksum mismatch).

    Distinct from :class:`ArtifactMismatchError`: a *mismatched* artifact is a
    healthy file for the wrong case, a *corrupt* one failed its integrity
    checks (zip structure, zlib stream, or the bundle's SHA-256 content
    checksum) and should be re-fetched or regenerated.
    """


def case_fingerprint(case: Case) -> str:
    """SHA-256 fingerprint of a case's numerical content.

    Covers the base MVA and every column of the bus/generator/branch/cost
    tables; the case *name* is deliberately excluded (it is cosmetic and
    scenario sweeps rename copies freely).
    """
    digest = hashlib.sha256()
    digest.update(np.float64(case.base_mva).tobytes())
    for table in (case.bus, case.gen, case.branch, case.gencost):
        for column in dataclasses.fields(table):
            arr = np.ascontiguousarray(getattr(table, column.name))
            digest.update(column.name.encode())
            digest.update(str(arr.dtype).encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


def _model_type_of(network: object) -> str:
    for tag, cls in _MODEL_TYPES.items():
        if isinstance(network, cls):
            return tag
    raise ArtifactError(f"cannot persist network of type {type(network).__name__}")


def save_artifact(engine: WarmStartEngine, path: Union[str, Path]) -> Path:
    """Write ``engine`` to a one-file artifact; returns the written path."""
    dims = engine.network.dims
    meta = {
        "artifact_version": ARTIFACT_VERSION,
        "case_name": engine.case.name,
        "case_fingerprint": case_fingerprint(engine.case),
        "model_type": _model_type_of(engine.network),
        "mtl_config": dataclasses.asdict(engine.config),
        "dims": dataclasses.asdict(dims),
        "opf_options": dataclasses.asdict(engine.opf_options),
        "fallback": engine.fallback.name,
    }
    arrays = {
        _PARAM_PREFIX + name: value for name, value in engine.network.state_dict().items()
    }
    arrays[_NORM_INPUT_PREFIX + "lo"] = engine.normalizer.inputs.lo
    arrays[_NORM_INPUT_PREFIX + "span"] = engine.normalizer.inputs.span
    for task, scaler in engine.normalizer.tasks.items():
        arrays[f"{_NORM_TASK_PREFIX}{task}/lo"] = scaler.lo
        arrays[f"{_NORM_TASK_PREFIX}{task}/span"] = scaler.span
    return save_bundle(path, arrays, meta)


def _normalizer_from_arrays(arrays) -> DatasetNormalizer:
    tasks = {}
    for key in arrays:
        if key.startswith(_NORM_TASK_PREFIX) and key.endswith("/lo"):
            task = key[len(_NORM_TASK_PREFIX) : -len("/lo")]
            tasks[task] = MinMaxScaler(
                lo=arrays[key], span=arrays[f"{_NORM_TASK_PREFIX}{task}/span"]
            )
    return DatasetNormalizer(
        inputs=MinMaxScaler(
            lo=arrays[_NORM_INPUT_PREFIX + "lo"], span=arrays[_NORM_INPUT_PREFIX + "span"]
        ),
        tasks=tasks,
    )


def load_artifact(
    path: Union[str, Path],
    case: Case,
    opf_options: Optional[OPFOptions] = None,
    fallback: object = PERSISTED_FALLBACK,
    opf_model: Optional[OPFModel] = None,
    microbatch: Optional[int] = None,
) -> WarmStartEngine:
    """Reconstruct a :class:`WarmStartEngine` from an artifact file.

    ``case`` must be the system the artifact was trained on; the stored
    fingerprint is verified and :class:`ArtifactMismatchError` is raised on
    mismatch.  ``opf_options`` and ``fallback`` default to the persisted
    values and can be overridden for the new deployment; passing
    ``fallback=None`` explicitly selects no recovery
    (:class:`~repro.engine.fallback.NoFallback`), as everywhere else.
    ``microbatch`` configures the solver fleet (a deployment choice, not part
    of the trained artifact).
    """
    try:
        arrays, meta = load_bundle(path)
    except BundleIntegrityError as exc:
        raise ArtifactCorruptError(f"engine artifact {path} is corrupt: {exc}") from exc
    except ValueError as exc:
        raise ArtifactError(f"cannot read engine artifact {path}: {exc}") from exc

    version = meta.get("artifact_version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {version!r} (this build reads {ARTIFACT_VERSION})"
        )
    expected = meta["case_fingerprint"]
    actual = case_fingerprint(case)
    if actual != expected:
        raise ArtifactMismatchError(
            f"artifact {Path(path).name} was trained on case "
            f"{meta.get('case_name', '<unknown>')!r} (fingerprint {expected[:12]}…) but the "
            f"supplied case {case.name!r} has fingerprint {actual[:12]}…; load the artifact "
            "with the case it was trained on, or retrain"
        )

    cfg_dict = dict(meta["mtl_config"])
    cfg_dict["shared_layer_scales"] = tuple(cfg_dict["shared_layer_scales"])
    config = MTLConfig(**cfg_dict)
    dims = TaskDimensions(**meta["dims"])
    try:
        network_cls = _MODEL_TYPES[meta["model_type"]]
    except KeyError:
        raise ArtifactError(f"unknown model type {meta['model_type']!r} in artifact") from None
    network = network_cls(dims, config, seed=config.seed)
    network.load_state_dict(
        {
            key[len(_PARAM_PREFIX) :]: value
            for key, value in arrays.items()
            if key.startswith(_PARAM_PREFIX)
        }
    )

    if opf_options is None:
        opf_dict = dict(meta["opf_options"])
        mips_dict = dict(opf_dict["mips"])
        # Retired options that artifacts written before their removal carry:
        # neither changed a solution (threaded block factorisation was
        # bit-identical to serial by contract, refinement sweeps were 0).
        mips_dict.pop("kkt_factor_threads", None)
        mips_dict.pop("kkt_refine_steps", None)
        # Retired SuperLU backends load as the surviving SuperLU reference
        # ("blockdiag" was bit-identical to it by contract).
        if mips_dict.get("kkt_solver") in ("blockdiag", "spsolve"):
            mips_dict["kkt_solver"] = "factorized"
        opf_dict["mips"] = MIPSOptions(**mips_dict)
        opf_options = OPFOptions(**opf_dict)

    if fallback is PERSISTED_FALLBACK:
        fallback = meta["fallback"]
    return WarmStartEngine(
        case,
        network,
        _normalizer_from_arrays(arrays),
        config=config,
        opf_options=opf_options,
        fallback=get_fallback_policy(fallback),
        opf_model=opf_model,
        microbatch=microbatch,
    )
