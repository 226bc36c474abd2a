"""Async serving tier: request front-end over the warm-start engine.

The blocking library surface stays :class:`~repro.engine.engine.WarmStartEngine`;
this package adds the service layer — an asyncio :class:`AsyncServer` whose
continuous batcher coalesces concurrent requests into single batched
inference + lockstep solve dispatches whenever the executor is free, with
bounded-queue backpressure (:class:`OverloadedError`).
"""

from repro.serving.server import AsyncServer, OverloadedError, ServerStats

__all__ = ["AsyncServer", "OverloadedError", "ServerStats"]
