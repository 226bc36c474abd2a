"""Loss functions for the NumPy neural-network stack.

The supervised term of the Smart-PGSim training objective (Eqn. 4 of the
paper) is a weighted Charbonnier loss — a smooth variant of the L1 loss —
between each predicted task output and the ground truth collected from the
MIPS solver.
"""

from __future__ import annotations

from typing import Optional

from repro.nn.tensor import Tensor, as_tensor


def charbonnier(pred: Tensor, target: Tensor, epsilon: float = 1e-9, weight: Optional[float] = None) -> Tensor:
    """Charbonnier loss ``mean(sqrt((pred - target)^2 + eps^2))``.

    ``epsilon`` matches the paper's numerical-stability constant (1e-9).
    """
    pred = as_tensor(pred)
    target = as_tensor(target)
    diff = pred - target
    loss = ((diff * diff) + epsilon ** 2).sqrt().mean()
    if weight is not None:
        loss = loss * float(weight)
    return loss
