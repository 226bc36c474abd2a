"""MATPOWER's fixed-σ step on every row: the switch that reaches the frozen
trajectories.

``mips_batch`` picks each row's step rule through one module-level function,
``repro.mips.batch._sigma_floor``: a row that enters without warm ``µ`` /
``Z`` enters centred and takes predictor–corrector steps, and every row takes
the endgame's predictor–corrector steps once it is feasible.  The frozen
answers of ``tests/data/scalar_reference.npz`` and the KKT planes the
``LDLSolver`` unit tests factor are MATPOWER's trajectories: MATPOWER's entry
and the fixed-σ step from the first iteration to the last.  Inside a
``with fixed_sigma():`` block every row takes that rule, whatever it brings.
The swap is in-process, like :func:`reference.kkt.kkt_solve`: a spawned fleet
worker imports an unpatched ``repro``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

import repro.mips.batch


def _matpower(warm_duals: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """No row takes predictor–corrector steps (a NaN floor is the fixed-σ step)."""
    return np.full(warm_duals.shape, np.nan)


@contextmanager
def fixed_sigma() -> Iterator[None]:
    """Run every ``mips_batch`` call inside the block on MATPOWER's entry and
    fixed-σ step, with no endgame."""
    with mock.patch.object(repro.mips.batch, "_sigma_floor", _matpower):
        yield
