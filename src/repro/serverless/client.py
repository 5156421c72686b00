"""A simple client for the baseline platform (no epochs, no routing, no retries)."""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.messages import ClientReply, ClientRequest
from repro.core.ids import ObjectId
from repro.errors import InvocationFailed, RequestTimeout
from repro.rpc import RetryAfter, RpcStub


class SimpleClient:
    """Sends each invocation once to the platform's entry point and
    awaits the reply.

    No retries: a timeout raises :class:`~repro.errors.RequestTimeout`,
    and so does a gateway :class:`~repro.rpc.RetryAfter` (the request
    was shed under admission control).
    """

    def __init__(
        self,
        platform: Any,
        name: str,
        request_timeout_ms: float = 1_000.0,
        tenant: Optional[str] = None,
    ) -> None:
        self.platform = platform
        self.sim = platform.sim
        self.net = platform.net
        self.name = name
        self._counter = 0
        #: the tenant requests bill against under gateway admission
        #: control (defaults to the client name)
        self.tenant = tenant if tenant is not None else name
        # Sequential waits: unmatched payloads are stale, discard them.
        self.stub = RpcStub(
            platform.sim,
            platform.net,
            name,
            default_deadline_ms=request_timeout_ms,
            discard_unmatched=True,
            registry=platform.metrics,
            tracer_fn=lambda: platform.tracer,
        )
        self.host = self.stub.host

    def invoke(self, object_id: ObjectId, method: str, *args: Any):
        """Simulation process: invoke and return the function's value."""
        self._counter += 1
        request_id = f"{self.name}#{self._counter}"
        request = ClientRequest(
            request_id=request_id,
            client=self.name,
            object_id=object_id,
            method=method,
            args=args,
            epoch=0,
            tenant=self.tenant,
        )
        reply = yield from self.stub.call(
            self.platform.entry_point(),
            request,
            lambda p: isinstance(p, ClientReply) and p.request_id == request_id,
            method=method,
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
        return reply.value
