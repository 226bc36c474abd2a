"""Health machinery over the warm-start path.

A failed warm solve is re-solved cold inside the fleet worker (see
:class:`~repro.parallel.pool.WorkerState`); this module watches how often that
happens.  :class:`HealthWindow` is a rolling window over recent fallback
outcomes and :class:`CircuitBreaker` a deterministic, count-based breaker the
engine consults before spending inference + warm-solve effort on a request
stream whose warm starts have stopped converging.
"""

from __future__ import annotations

from collections import deque
from typing import Deque


class HealthWindow:
    """Rolling window over the last ``window`` per-request fallback outcomes.

    The serving engine records one boolean per served scenario (did the warm
    attempt need the cold restart?); the window's ``fallback_rate`` is the
    health signal the :class:`CircuitBreaker` trips on.
    """

    def __init__(self, window: int = 32):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._events: Deque[bool] = deque(maxlen=window)

    def record(self, used_fallback: bool) -> None:
        """Append one observation (oldest falls out once the window is full)."""
        self._events.append(bool(used_fallback))

    def reset(self) -> None:
        """Forget all observations (called when the breaker closes again)."""
        self._events.clear()

    @property
    def n_observations(self) -> int:
        """Observations currently in the window (≤ ``window``)."""
        return len(self._events)

    @property
    def fallback_rate(self) -> float:
        """Fraction of windowed requests that needed the fallback (0 when empty)."""
        if not self._events:
            return 0.0
        return sum(self._events) / len(self._events)


class CircuitBreaker:
    """Deterministic count-based breaker over the warm-start path.

    States follow the classic pattern, driven purely by request counts (no
    wall clock, so tests are reproducible):

    * **closed** — warm starts are served normally; each outcome lands in a
      :class:`HealthWindow`.  Once at least ``min_observations`` are in the
      window and its fallback rate reaches ``threshold``, the breaker trips
      (``trips`` increments) and opens.
    * **open** — :meth:`allow_warm` is ``False``: the engine skips inference
      and routes requests straight to the cold path.  After
      ``cooldown`` recorded requests the breaker moves to half-open.
    * **half-open** — one probe request is served warm; a clean probe closes
      the breaker (window reset), a fallback re-trips it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        window: int = 32,
        threshold: float = 0.5,
        min_observations: int = 8,
        cooldown: int = 16,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if min_observations < 1:
            raise ValueError("min_observations must be positive")
        if cooldown < 1:
            raise ValueError("cooldown must be positive")
        self.health = HealthWindow(window)
        self.threshold = threshold
        self.min_observations = min_observations
        self.cooldown = cooldown
        self.state = self.CLOSED
        #: Number of times the breaker has tripped open (telemetry).
        self.trips = 0
        self._cooldown_left = 0

    def allow_warm(self) -> bool:
        """Whether the next request should take the warm-start path."""
        return self.state != self.OPEN

    def record(self, used_fallback: bool) -> None:
        """Record one served request's outcome and advance the state machine."""
        if self.state == self.OPEN:
            # Degraded requests only count down the cooldown; their outcome
            # says nothing about warm-start health.
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = self.HALF_OPEN
            return
        if self.state == self.HALF_OPEN:
            if used_fallback:
                self._trip()
            else:
                self.state = self.CLOSED
                self.health.reset()
            return
        self.health.record(used_fallback)
        if (
            self.health.n_observations >= self.min_observations
            and self.health.fallback_rate >= self.threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self.trips += 1
        self._cooldown_left = self.cooldown
        self.health.reset()

    def reset(self) -> None:
        """Return to *closed* with a fresh health window.

        Called on a successful model promotion: the health the breaker
        accumulated belongs to the retired model, and a freshly promoted one
        must not inherit an open breaker (or a half-open probe) it did
        nothing to earn.  ``trips`` is cumulative telemetry across
        generations and deliberately survives the reset.
        """
        self.state = self.CLOSED
        self._cooldown_left = 0
        self.health.reset()
