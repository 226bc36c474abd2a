"""Small shared utilities: RNG handling, timing, logging and sparse helpers."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timing import Timer, timed
from repro.utils.logging import get_logger
from repro.utils.sparse import (
    CachedBmat,
    col_scaled_csr,
    row_scaled_csr,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "timed",
    "get_logger",
    "CachedBmat",
    "col_scaled_csr",
    "row_scaled_csr",
]
