"""The unified RPC layer: typed endpoints and stubs over ``sim.network``.

One comms substrate for every node and client in the system (paper §3.1
invocation linearizability and §4.2 replication both ride on
request/reply messaging): :class:`RpcEndpoint` dispatches inbound
messages by type on the server side, :class:`RpcStub` correlates
request/reply with deadlines and retry policies on the client side, and
both record per-RPC metrics and spans automatically.  See DESIGN.md §5f.
"""

from repro.rpc.dedupe import CompletedRequestTable, split_request_id
from repro.rpc.endpoint import RpcEndpoint
from repro.rpc.policy import LinearJitterBackoff, RetryAfter, RetryPolicy
from repro.rpc.stub import RpcStub

__all__ = [
    "CompletedRequestTable",
    "LinearJitterBackoff",
    "RetryAfter",
    "RetryPolicy",
    "RpcEndpoint",
    "RpcStub",
    "split_request_id",
]
