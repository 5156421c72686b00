"""A simple client for the baseline platform (no epochs, no routing)."""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.messages import ClientReply, ClientRequest
from repro.core.ids import ObjectId
from repro.errors import InvocationFailed, RequestTimeout
from repro.rpc import LinearJitterBackoff, RetryAfter, RpcStub


class SimpleClient:
    """Sends invocations to a fixed entry point and awaits replies.

    Historically single-attempt.  ``max_attempts > 1`` turns on retries
    (used by the overload experiments): timeouts back off with jitter,
    and a gateway :class:`~repro.rpc.RetryAfter` sleeps the
    server-advised delay instead.
    """

    def __init__(
        self,
        platform: Any,
        name: str,
        request_timeout_ms: float = 1_000.0,
        max_attempts: int = 1,
        tenant: Optional[str] = None,
    ) -> None:
        self.platform = platform
        self.sim = platform.sim
        self.net = platform.net
        self.name = name
        self._counter = 0
        self._max_attempts = max_attempts
        #: the tenant requests bill against under gateway admission
        #: control (defaults to the client name)
        self.tenant = tenant if tenant is not None else name
        self.completions: list[tuple[float, str]] = []
        # The jitter stream exists only for retrying clients, so
        # single-attempt clients (the historical default) create exactly
        # the streams they always did.
        rng = platform.sim.rng(f"client.{name}") if max_attempts > 1 else None
        # Sequential waits: unmatched payloads are stale, discard them.
        self.stub = RpcStub(
            platform.sim,
            platform.net,
            name,
            default_deadline_ms=request_timeout_ms,
            discard_unmatched=True,
            registry=getattr(platform, "metrics", None),
            tracer_fn=lambda: getattr(platform, "tracer", None),
            rng=rng,
        )
        self.host = self.stub.host

    def invoke(self, object_id: ObjectId, method: str, *args: Any):
        """Simulation process: invoke and return the function's value."""
        self._counter += 1
        request_id = f"{self.name}#{self._counter}"
        started = self.sim.now
        request = ClientRequest(
            request_id=request_id,
            client=self.name,
            object_id=object_id,
            method=method,
            args=args,
            epoch=0,
            tenant=self.tenant,
        )
        if self._max_attempts <= 1:
            reply = yield from self.stub.call(
                self.platform.entry_point(),
                request,
                lambda p: isinstance(p, ClientReply) and p.request_id == request_id,
                method=method,
                trace_id=request_id,
                request_id=request_id,
            )
        else:
            reply = yield from self.stub.call(
                # Re-drawn per attempt: a retry may land on a different
                # entry point (round-robin without a gateway).
                lambda _attempt: self.platform.entry_point(),
                request,
                lambda p: isinstance(p, ClientReply) and p.request_id == request_id,
                retry=LinearJitterBackoff(self._max_attempts),
                method=method,
                trace_id=request_id,
                request_id=request_id,
            )
        if reply is None:
            raise RequestTimeout(f"{method} on {object_id.short} timed out")
        if type(reply) is RetryAfter:
            raise RequestTimeout(
                f"{method} on {object_id.short} shed by "
                f"{reply.server or 'gateway'}: {reply.reason}"
            )
        if not reply.ok:
            # The platform answered: the invocation itself failed (bad
            # method, unknown object, application error) — not a timeout.
            raise InvocationFailed(f"{method} failed: {reply.error}", error=reply.error)
        self.completions.append((self.sim.now - started, method))
        return reply.value
