"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng`
normalises all three into a ``Generator`` so results are reproducible when a
seed is supplied and independent when one is not.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RNGLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)

