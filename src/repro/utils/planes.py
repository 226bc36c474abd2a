"""Column gathers and scatters on the ``(B, ncols)`` planes of the lockstep solver.

The lockstep solver keeps every per-scenario quantity of a batch as one
C-contiguous ``(B, ·)`` *plane* and replays index maps fixed per sparsity
pattern over it every iteration: the LDLᵀ factor and solves, the KKT
assembly, the Lagrangian gradient.  Written as NumPy advanced indexing,
``plane[:, idx]`` mixes a slice with an index array, which sends it down
NumPy's general indexing machinery: gathering 20k columns of a ``(B, 4000)``
plane costs ~320 µs at ``B = 2`` against ~50 µs for ``take``, so a
lockstep step got 2.4x dearer going from one row to two.  This module is the
one place that decides how those maps are replayed, with two primitives:

* :func:`take` — a column gather, ``plane.take(idx, axis=1)``;
* :class:`Targets` — the unique column targets of a scatter, written through
  flat offsets ``row · ncols + idx`` into the C-contiguous plane
  (``flat[off] = flat.take(off) − v`` for a subtract-scatter).  The offsets
  are held per index array for at most :attr:`Targets.MAX_ROWS` rows — one
  array whose prefix serves every narrower plane — and wider planes are
  written in row blocks of that height, so the memory they take is bounded
  whatever the batch width.

The third primitive of the solver's index plans, the segment sum, stays
``np.add.reduceat`` at its call sites: a CSR or sequential segment sum is
faster on wide planes but does not reproduce ``reduceat``'s summation order.

Both primitives move data only: every element is produced by the same ufunc
from the same operands as with advanced indexing, so results are
bit-identical to ``plane[:, idx]`` / ``plane[:, idx] -= v`` (for unique
targets), at every batch width.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = ["Targets", "take"]


def take(plane: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of a ``(B, ncols)`` plane, as a new ``(B, len(idx))`` plane.

    Callers reach it as ``planes.take`` so that ``tests/test_plane_kernels.py``
    can swap the advanced-indexing form back in and compare answer bits.
    """
    return plane.take(idx, axis=1)


class Targets:
    """Unique column targets of scatters into C-contiguous ``(B, ncols)`` planes.

    ``put`` / ``add`` / ``sub`` are ``plane[:, idx] = v``, ``+= v`` and
    ``-= v`` for a ``(B, len(idx))`` operand, a ``(1, len(idx))`` operand
    broadcast over the rows, or a scalar.  The targets must be unique (every
    scatter of the solver writes each position once), and the plane must be
    C-contiguous, since the writes go through its flat view.
    """

    __slots__ = ("idx", "_offsets")

    #: Rows of flat offsets held per index array; wider planes are written
    #: in row blocks of this height.  The widest lockstep batch of the
    #: benchmarked services is 16 rows.
    MAX_ROWS = 16

    def __init__(self, idx: np.ndarray) -> None:
        self.idx = np.asarray(idx, dtype=np.intp)
        #: ``(ncols, rows, offsets)`` for the widest plane seen (≤ MAX_ROWS).
        self._offsets: Optional[tuple] = None

    @property
    def size(self) -> int:
        """Number of targets."""
        return self.idx.size

    def offsets(self, ncols: int, rows: int) -> np.ndarray:
        """Flat offsets ``r · ncols + idx`` of ``rows ≤ MAX_ROWS`` plane rows."""
        if rows > self.MAX_ROWS:
            raise ValueError(f"offsets are held for at most {self.MAX_ROWS} rows")
        cached = self._offsets
        if cached is None or cached[0] != ncols or cached[1] < rows:
            base = np.arange(rows, dtype=np.intp)[:, None] * ncols
            # One tuple assignment, so a concurrent reader sees either the
            # old cache or the new one, never a mix.
            cached = self._offsets = (ncols, rows, (base + self.idx).reshape(-1))
        return cached[2][: rows * self.idx.size]

    def _write(self, plane: np.ndarray, values, op: Optional[Callable]) -> None:
        rows, ncols = plane.shape
        values = np.asarray(values)
        step = self.MAX_ROWS
        if rows > step:
            per_row = values.ndim == 2 and values.shape[0] == rows
            for r0 in range(0, rows, step):
                part = values[r0 : r0 + step] if per_row else values
                self._write(plane[r0 : r0 + step], part, op)
            return
        if not plane.flags.c_contiguous:
            raise ValueError("scatter targets need a C-contiguous plane")
        off = self.offsets(ncols, rows)
        flat = plane.reshape(-1)
        shape = (rows, self.idx.size)
        if op is not None:
            values = op(flat.take(off).reshape(shape), values)
        elif values.ndim and values.shape != shape:
            values = np.broadcast_to(values, shape)
        flat[off] = values.reshape(-1) if values.ndim else values

    def put(self, plane: np.ndarray, values) -> None:
        """``plane[:, idx] = values``."""
        self._write(plane, values, None)

    def add(self, plane: np.ndarray, values) -> None:
        """``plane[:, idx] += values``."""
        self._write(plane, values, np.add)

    def sub(self, plane: np.ndarray, values) -> None:
        """``plane[:, idx] -= values``."""
        self._write(plane, values, np.subtract)
