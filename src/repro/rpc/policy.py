"""Retry policies for :meth:`repro.rpc.RpcStub.call`.

A policy bounds the attempt count and shapes the delay between attempts.
Delays draw jitter from the *caller's* named random stream (passed per
call), never from a policy-owned one, so two stubs sharing a policy
instance cannot perturb each other's draw order — the property the
simulator's byte-identical determinism rests on.

``delay_ms`` returning ``0`` means "retry immediately"; the stub then
schedules no timeout event at all, which keeps zero-delay retry loops
(e.g. coordinator leader-hint chasing) event-count-identical to a plain
``continue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass
class RetryAfter:
    """Server-advised backoff: "I shed your request; come back in N ms."

    Sent instead of a normal reply by an overloaded entry point (gateway
    admission control, a storage node's token buckets).  The stub treats
    it specially: the attempt is always retried, and the inter-attempt
    delay is the server's ``retry_after_ms`` — which knows when the
    bucket refills — rather than the policy's blind jitter.  On attempt
    exhaustion the stub returns the ``RetryAfter`` itself so callers can
    classify the failure as overload rather than a timeout or an
    application error.
    """

    request_id: str
    retry_after_ms: float
    #: which gate shed it ("rate" | "concurrency" | "pressure" | ...)
    reason: str = "overloaded"
    #: the entry point that shed (metrics/debugging attribution)
    server: str = ""

    def size(self) -> int:
        return 40 + len(self.reason)


class RetryPolicy:
    """Bounded attempts with no delay between them.

    The base policy is what single-shot requests (``max_attempts=1``) and
    immediate-retry loops use.  Subclasses override :meth:`delay_ms`.
    """

    def __init__(self, max_attempts: int = 1) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts

    def delay_ms(self, attempt: int, rng: Optional[Any]) -> float:
        """Delay before attempt ``attempt + 1`` (``attempt`` is 0-based)."""
        return 0.0


class LinearJitterBackoff(RetryPolicy):
    """``uniform(low, high) * (1 + attempt)`` — the cluster client's
    historical schedule, preserved draw-for-draw so fixed-seed runs stay
    byte-identical across the rpc-layer migration."""

    def __init__(
        self, max_attempts: int, low_ms: float = 0.1, high_ms: float = 0.5
    ) -> None:
        super().__init__(max_attempts)
        self.low_ms = low_ms
        self.high_ms = high_ms

    def delay_ms(self, attempt: int, rng: Optional[Any]) -> float:
        if rng is None:
            return self.high_ms * (1 + attempt)
        return rng.uniform(self.low_ms, self.high_ms) * (1 + attempt)
