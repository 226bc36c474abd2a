"""Learning-rate schedulers."""

from __future__ import annotations

from typing import Dict

from repro.nn.optim import Optimizer


class Scheduler:
    """Base class: remembers the optimiser and the initial learning rate."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        """Advance one epoch and update the optimiser's learning rate."""
        self.epoch += 1
        lr = self.compute_lr(self.epoch)
        self.optimizer.lr = lr
        return lr

    def compute_lr(self, epoch: int) -> float:
        """Learning rate at ``epoch`` (must be overridden)."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Serialisable scheduler position (the schedule itself is config)."""
        return {"epoch": self.epoch, "base_lr": self.base_lr}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a position saved by :meth:`state_dict`.

        Only the position is restored — the optimiser's current ``lr`` is
        part of the *optimiser* state dict, so a full checkpoint round-trip
        reproduces both.
        """
        self.epoch = int(state["epoch"])
        self.base_lr = float(state["base_lr"])


class StepLR(Scheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        super().__init__(optimizer)
        if step_size < 1:
            raise ValueError("step_size must be at least 1")
        self.step_size = step_size
        self.gamma = gamma

    def compute_lr(self, epoch: int) -> float:
        return self.base_lr * (self.gamma ** (epoch // self.step_size))
