"""Small shared utilities: RNG handling, logging and sparse helpers."""

from repro.utils.rng import ensure_rng
from repro.utils.logging import get_logger
from repro.utils.sparse import col_scaled_csr, row_scaled_csr

__all__ = [
    "ensure_rng",
    "get_logger",
    "col_scaled_csr",
    "row_scaled_csr",
]
