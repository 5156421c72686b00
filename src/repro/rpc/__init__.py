"""The unified RPC layer: typed endpoints and stubs over ``sim.network``.

One comms substrate for every node and client in the system (paper §3.1
invocation linearizability and §4.2 replication both ride on
request/reply messaging): :class:`RpcEndpoint` dispatches inbound
messages by type on the server side, :class:`RpcStub` correlates
request/reply with deadlines on the client side (one attempt per
``call``; a retrying caller runs its own loop over an :class:`RpcCall`),
and both record per-RPC metrics and spans automatically.  See DESIGN.md
§5f.
"""

from repro.rpc.dedupe import CompletedRequestTable, split_request_id
from repro.rpc.endpoint import RpcEndpoint
from repro.rpc.policy import RetryAfter
from repro.rpc.stub import RpcCall, RpcStub

__all__ = [
    "CompletedRequestTable",
    "RetryAfter",
    "RpcCall",
    "RpcEndpoint",
    "RpcStub",
    "split_request_id",
]
