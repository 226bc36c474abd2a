"""Saving and loading model parameters (NumPy ``.npz`` format).

A *bundle* is arrays plus one JSON metadata blob in a single ``.npz``; the
engine artifact layer uses it to persist a model together with its normalizer
statistics, configuration and case fingerprint.

Bundles carry a SHA-256 content checksum (over every array's name, dtype,
shape and bytes plus the metadata blob).  :func:`load_bundle` verifies it and
raises :class:`BundleIntegrityError` on mismatch — and translates the zip- or
decompression-level errors NumPy raises on a corrupted archive into the same
type — so callers get one well-typed signal for "the file is damaged" as
opposed to "the file is a different kind of thing".
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

#: Reserved key carrying the JSON metadata blob inside a bundle.
META_KEY = "__meta__"

#: Reserved key carrying the bundle's SHA-256 content checksum.
CHECKSUM_KEY = "__checksum__"


class BundleIntegrityError(ValueError):
    """The bundle file is corrupt (bad archive, or checksum mismatch)."""


def _bundle_digest(arrays: Dict[str, np.ndarray], meta_json: str) -> str:
    """SHA-256 over the bundle's logical content (order-independent)."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    digest.update(meta_json.encode())
    return digest.hexdigest()


def _atomic_savez(path: Path, payload: Dict[str, np.ndarray]) -> Path:
    """Crash-safe ``np.savez``: write a temp file, then ``os.replace`` it.

    The archive is written to a temporary sibling *in the destination
    directory* (so the final rename never crosses a filesystem) and renamed
    into place only once it is complete.  A process killed mid-save can leave
    a stale ``*.tmp.<pid>`` sibling behind, but never a truncated bundle at
    the published path — the previous file there stays intact, or the path
    simply does not exist yet.
    """
    final = path if path.suffix == ".npz" else Path(str(path) + ".npz")
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.parent / f"{final.name}.tmp.{os.getpid()}"
    try:
        # Hand np.savez an open file object: given a bare path it would
        # append its own .npz suffix and publish the temp name we chose.
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            tmp.unlink()
    return final


def save_bundle(
    path: Union[str, Path], arrays: Dict[str, np.ndarray], meta: Dict[str, object]
) -> Path:
    """Write arrays plus a JSON metadata blob to one ``.npz`` file.

    ``meta`` must be JSON-serialisable; it is stored under :data:`META_KEY`,
    and a SHA-256 content checksum is stored under :data:`CHECKSUM_KEY`.
    Returns the path NumPy actually wrote (an ``.npz`` suffix is appended when
    missing).

    The write is crash-safe (:func:`_atomic_savez`): the bundle lands at the
    published path only as one complete ``os.replace``, so a process killed
    mid-save leaves any previous artifact at that path intact — it can never
    publish a truncated archive that would later raise
    :class:`BundleIntegrityError`.
    """
    for reserved in (META_KEY, CHECKSUM_KEY):
        if reserved in arrays:
            raise ValueError(f"array key {reserved!r} is reserved")
    meta_json = json.dumps(meta)
    payload = dict(arrays)
    payload[META_KEY] = np.array(meta_json)
    payload[CHECKSUM_KEY] = np.array(_bundle_digest(arrays, meta_json))
    return _atomic_savez(Path(path), payload)


def load_bundle(path: Union[str, Path]) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Read a bundle written by :func:`save_bundle`; returns ``(arrays, meta)``.

    Raises :class:`BundleIntegrityError` when the archive is damaged (NumPy's
    zip/zlib errors are translated) or the stored content checksum does not
    match the data actually read.  Bundles written before checksums existed
    (no :data:`CHECKSUM_KEY` entry) load without verification.
    """
    try:
        with np.load(Path(path), allow_pickle=False) as data:
            if META_KEY not in data.files:
                raise ValueError(f"{path} is not a bundle (missing {META_KEY!r})")
            meta_json = str(data[META_KEY])
            stored_checksum = (
                str(data[CHECKSUM_KEY]) if CHECKSUM_KEY in data.files else None
            )
            arrays = {
                key: data[key].copy()
                for key in data.files
                if key not in (META_KEY, CHECKSUM_KEY)
            }
    except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
        raise BundleIntegrityError(f"bundle {path} is corrupt: {exc}") from exc
    if stored_checksum is not None:
        actual = _bundle_digest(arrays, meta_json)
        if actual != stored_checksum:
            raise BundleIntegrityError(
                f"bundle {path} failed its content checksum "
                f"(stored {stored_checksum[:12]}…, recomputed {actual[:12]}…)"
            )
    return arrays, json.loads(meta_json)
