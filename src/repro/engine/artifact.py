"""Engine artifacts: one-file persistence of a trained serving engine.

An artifact is a single ``.npz`` bundle (see :mod:`repro.nn.serialization`)
holding

* the :class:`~repro.engine.retrieval.NearestSolutions` table — the training
  loads under ``starts/inputs`` and each task's solutions under
  ``starts/<task>``, at full ``float64`` precision, so a reloaded engine
  serves bit for bit what the saving one served,
* the MIPS iteration cap, and
* a SHA-256 **fingerprint of the power-grid case** the table was solved on.

Loading verifies the fingerprint against the case the caller supplies:
solutions of one network topology are meaningless warm starts for another,
so a mismatch raises :class:`ArtifactMismatchError` instead of silently
serving garbage.  Version 1 artifacts stored network weights instead of the
table and cannot be served; loading one asks for a retrain.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.data.dataset import TASK_NAMES
from repro.engine.engine import WarmStartEngine
from repro.engine.retrieval import NearestSolutions
from repro.grid.components import Case
from repro.mips.options import (
    BOUND_EQ_TOL,
    COMPTOL,
    COSTTOL,
    FEASTOL,
    GRADTOL,
    MAX_STEPSIZE,
    SIGMA,
    XI,
    Z0,
    MIPSOptions,
)
from repro.nn.serialization import BundleIntegrityError, load_bundle, save_bundle
from repro.opf.model import OPFModel

#: Bumped on incompatible layout changes.
ARTIFACT_VERSION = 2

_STARTS_PREFIX = "starts/"

#: Settings older artifacts stored under ``opf_options`` that are fixed now,
#: with the one value each may hold: another value poses a different problem.
_FIXED_SETTINGS = {
    "flow_limits": "S",
    "init": "case",
    "cost_mult": 1.0,
    "feastol": FEASTOL,
    "gradtol": GRADTOL,
    "comptol": COMPTOL,
    "costtol": COSTTOL,
    "xi": XI,
    "sigma": SIGMA,
    "z0": Z0,
    "max_stepsize": MAX_STEPSIZE,
    "bound_eq_tol": BOUND_EQ_TOL,
}


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


def save_artifact(engine: WarmStartEngine, path: Union[str, Path]) -> Path:
    """Write ``engine`` to a one-file artifact; returns the written path."""
    starts = engine.starts
    meta = {
        "artifact_version": ARTIFACT_VERSION,
        "case_name": engine.case.name,
        "case_fingerprint": case_fingerprint(engine.case),
        "opf_options": dataclasses.asdict(engine.opf_options),
    }
    arrays = {_STARTS_PREFIX + task: values for task, values in starts.targets.items()}
    arrays[_STARTS_PREFIX + "inputs"] = starts.inputs
    return save_bundle(path, arrays, meta)


def _stored_options(stored: dict) -> MIPSOptions:
    """The :class:`MIPSOptions` of an artifact's ``opf_options`` entry.

    Artifacts written before the OPF problem was fixed nest the MIPS fields
    under ``"mips"``, beside ``flow_limits`` and ``init``.  A stored setting
    that is a constant now must hold its constant's value, or
    :class:`ArtifactError` names it; retired switches (``record_history``,
    ``verbose``, the KKT backend keys, the wall budget) are dropped.
    """
    flat = {name: value for name, value in stored.items() if name != "mips"}
    flat.update(stored.get("mips", {}))
    for name, value in flat.items():
        if name in _FIXED_SETTINGS and value != _FIXED_SETTINGS[name]:
            raise ArtifactError(
                f"artifact opf_options.{name} is {value!r}; this build solves with "
                f"{_FIXED_SETTINGS[name]!r} only"
            )
    try:
        return MIPSOptions(**{k: v for k, v in flat.items() if k == "max_it"})
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact opf_options are invalid: {exc}") from exc


def load_artifact(
    path: Union[str, Path],
    case: Case,
    opf_model: Optional[OPFModel] = None,
) -> WarmStartEngine:
    """Reconstruct a :class:`WarmStartEngine` from an artifact file.

    ``case`` must be the system the artifact was trained on; the stored
    fingerprint is verified and :class:`ArtifactMismatchError` is raised on
    mismatch.  The engine solves with the stored iteration cap.
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
            f"unsupported artifact version {version!r} (this build reads {ARTIFACT_VERSION}); "
            "retrain and save the engine again"
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

    starts = NearestSolutions(
        inputs=arrays[_STARTS_PREFIX + "inputs"],
        targets={task: arrays[_STARTS_PREFIX + task] for task in TASK_NAMES},
    )
    return WarmStartEngine(
        case,
        starts,
        opf_options=_stored_options(meta["opf_options"]),
        opf_model=opf_model,
    )
