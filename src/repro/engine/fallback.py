"""Pluggable fallback policies for failed warm-started solves.

The paper's online procedure restarts a failed warm solve from the solver
default so the workflow always converges.  In a serving deployment that is
only one point in a recovery-cost trade-off: a relaxed-tolerance warm retry is
often much cheaper than a full cold restart, and a batch analytics job may
prefer to record the failure and move on.  This module makes that choice a
policy object that the serving engine and the worker pool thread through
unchanged — policies are small frozen dataclasses, so they pickle cleanly into
spawned solver workers.

A policy's :meth:`~FallbackPolicy.recover` receives a ``solve`` callable
(``solve(warm_start, options=None) -> OPFResult``) bound to the failing
scenario, the warm start that failed and the failed result; it returns the
recovery result, or ``None`` to keep the failure as the final answer.

Beyond per-scenario recovery this module also provides the serving tier's
health machinery: :class:`HealthWindow` (a rolling window over recent
fallback outcomes) and :class:`CircuitBreaker` (a deterministic, count-based
breaker the engine consults before spending inference + warm-solve effort on
a request stream whose warm starts have stopped converging).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, ClassVar, Deque, Dict, Optional, Type, Union

from repro.opf.result import OPFResult
from repro.opf.options import OPFOptions, relaxed_options
from repro.opf.warmstart import WarmStart

#: Signature of the per-scenario solve callable handed to policies.
SolveFn = Callable[..., OPFResult]


class FallbackPolicy(ABC):
    """Strategy applied when a warm-started solve fails to converge."""

    #: Registry key (also used when persisting an engine artifact).
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def recover(
        self,
        solve: SolveFn,
        warm: Optional[WarmStart],
        failed: OPFResult,
        options: OPFOptions,
    ) -> Optional[OPFResult]:
        """Attempt recovery; return the new result or ``None`` to keep ``failed``."""


@dataclass(frozen=True)
class ColdRestartFallback(FallbackPolicy):
    """Re-solve from the solver default start (the paper's online procedure)."""

    name: ClassVar[str] = "cold_restart"

    def recover(self, solve, warm, failed, options):
        return solve(None, options)


@dataclass(frozen=True)
class RelaxedWarmRetryFallback(FallbackPolicy):
    """Retry the warm start with scaled termination tolerances.

    A warm start that stalls just short of the default tolerances usually
    passes once they are loosened by ``tolerance_scale``; that retry starts
    from the predicted point, so it is far cheaper than a cold restart.  When
    ``cold_restart_on_failure`` is set the policy degrades to the cold restart
    if the relaxed retry also fails, so convergence is still guaranteed.
    """

    name: ClassVar[str] = "relaxed_warm"

    tolerance_scale: float = 100.0
    cold_restart_on_failure: bool = True

    def recover(self, solve, warm, failed, options):
        retry = solve(warm, relaxed_options(options, self.tolerance_scale))
        if retry.success or not self.cold_restart_on_failure:
            return retry
        return solve(None, options)


@dataclass(frozen=True)
class BudgetedFallback(FallbackPolicy):
    """Warm retries under a bounded budget with multiplicative tolerance backoff.

    Attempt ``i`` (zero-based) retries the warm start with the termination
    tolerances relaxed by ``backoff_scale ** (i + 1)``; the budget caps how
    many such retries may run for one scenario.  The backoff is numerical, not
    temporal — each retry starts from the predicted point with progressively
    looser tolerances, so the recovery cost stays bounded and the behaviour is
    deterministic (no wall-clock sleeps).  When the budget is exhausted the
    policy degrades to a cold restart unless ``cold_restart_on_exhaustion`` is
    disabled, in which case the last relaxed attempt is returned as-is.
    """

    name: ClassVar[str] = "budgeted"

    max_retries: int = 2
    backoff_scale: float = 10.0
    cold_restart_on_exhaustion: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_scale <= 1.0:
            raise ValueError("backoff_scale must be greater than 1")

    def recover(self, solve, warm, failed, options):
        last: Optional[OPFResult] = None
        for attempt in range(self.max_retries):
            scale = self.backoff_scale ** (attempt + 1)
            last = solve(warm, relaxed_options(options, scale))
            if last.success:
                return last
        if self.cold_restart_on_exhaustion:
            return solve(None, options)
        return last


@dataclass(frozen=True)
class NoFallback(FallbackPolicy):
    """Record the failure and move on (batch analytics mode)."""

    name: ClassVar[str] = "none"

    def recover(self, solve, warm, failed, options):
        return None


#: Built-in policies, keyed by their registry name.
FALLBACK_POLICIES: Dict[str, Type[FallbackPolicy]] = {
    ColdRestartFallback.name: ColdRestartFallback,
    RelaxedWarmRetryFallback.name: RelaxedWarmRetryFallback,
    BudgetedFallback.name: BudgetedFallback,
    NoFallback.name: NoFallback,
}


class HealthWindow:
    """Rolling window over the last ``window`` per-request fallback outcomes.

    The serving engine records one boolean per served scenario (did the warm
    attempt need the fallback policy?); the window's ``fallback_rate`` is the
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
      and routes requests straight to the relaxed/cold path.  After
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


def get_fallback_policy(spec: Union[str, FallbackPolicy, None]) -> FallbackPolicy:
    """Resolve a policy instance from a name, an instance or ``None``.

    ``None`` means "no recovery" and resolves to :class:`NoFallback`.
    """
    if spec is None:
        return NoFallback()
    if isinstance(spec, FallbackPolicy):
        return spec
    try:
        return FALLBACK_POLICIES[spec]()
    except KeyError:
        raise ValueError(
            f"unknown fallback policy {spec!r}; expected one of {sorted(FALLBACK_POLICIES)}"
        ) from None
