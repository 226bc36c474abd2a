"""Test-side fault builder: artifact corruption.

:func:`corrupt_artifact_bytes` damages a saved engine artifact on disk for
the artifact-robustness tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union


def corrupt_artifact_bytes(
    path: Union[str, Path],
    offset: Optional[int] = None,
    count: int = 32,
) -> Path:
    """Deterministically flip ``count`` bytes of a file in place.

    ``offset`` defaults to the middle of the file, which for an engine
    artifact lands inside the array payload (the zip directory lives at the
    end).  Bytes are XOR-flipped, so corruption is deterministic and
    self-inverse.  Returns the path.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    if offset is None:
        offset = len(data) // 2
    if not 0 <= offset < len(data):
        raise ValueError(f"offset {offset} outside file of {len(data)} bytes")
    stop = min(offset + max(count, 1), len(data))
    for i in range(offset, stop):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))
    return path
