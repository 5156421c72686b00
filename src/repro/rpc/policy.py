"""Server-advised backoff: the reply an overloaded entry point sends."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RetryAfter:
    """Server-advised backoff: "I shed your request; come back in N ms."

    Sent instead of a normal reply by an overloaded entry point (gateway
    admission control, a storage node's token buckets).  A stub call
    given a ``request_id`` matches the ``RetryAfter`` carrying that id.
    The cluster client sleeps ``retry_after_ms`` (the server knows when
    its gate clears) and retries without a config refresh; once no
    attempt is left, the ``RetryAfter`` marks the failure as overload,
    not a timeout or an application error.
    """

    request_id: str
    retry_after_ms: float
    #: which gate shed it ("rate" | "concurrency" | "pressure" | ...)
    reason: str = "overloaded"
    #: the entry point that shed (metrics/debugging attribution)
    server: str = ""

    def size(self) -> int:
        return 40 + len(self.reason)
