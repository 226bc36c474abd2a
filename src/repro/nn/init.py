"""Parameter-initialisation schemes for the NumPy neural-network stack."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RNGLike, ensure_rng


def kaiming_uniform(fan_in: int, fan_out: int, rng: RNGLike = None) -> np.ndarray:
    """He/Kaiming uniform initialisation (suited to ReLU activations)."""
    rng = ensure_rng(rng)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def zeros(*shape: int) -> np.ndarray:
    """All-zeros initialisation (used for biases)."""
    return np.zeros(shape)
