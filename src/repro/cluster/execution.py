"""Execute-then-replay across nodes (DESIGN.md §4b): the runtime that runs
a cross-node nested call at its owner, and the capture of what one
execution committed where, for the replay phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.invocation import InvocationResult
from repro.core.runtime import LocalRuntime
from repro.errors import InvocationError
from repro.kvstore.batch import WriteBatch, encode_round


class ClusterNodeRuntime(LocalRuntime):
    """LocalRuntime that routes nested invocations to the owning node."""

    def __init__(self, node: Any, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.node = node

    def invoke_request(self, request: Any, root=None) -> InvocationResult:
        """Run a client request's invocation with the request's root span
        active, so invoke / cache / commit / nested-call spans nest under
        it (guest execution is synchronous: no other process interleaves)."""
        tracer = self.node.tracer
        if tracer is not None and root is not None:
            with tracer.activate(root):
                return self.invoke_detailed(
                    request.object_id, request.method, *request.args
                )
        return self.invoke_detailed(request.object_id, request.method, *request.args)

    def _commit(self, ctx, reason: str = "final"):
        # Replica-state safety net: only an object's primary may commit
        # writes through the execution path.  This catches e.g. a
        # read-only invocation served at a backup whose guest code
        # nested-dispatched a mutating call — allowing that commit would
        # silently fork the replica from the primary.
        writeset = ctx.writeset
        if writeset.has_writes and self.node.shard_map is not None:
            replica_set = self.node.shard_map.shard_for(ctx.self_id())
            if replica_set.primary != self.node.name:
                raise InvocationError(
                    f"mutating commit for object {ctx.self_id().short} attempted "
                    f"at {self.node.name}, which is not its primary "
                    f"({replica_set.primary}); route writes to the primary"
                )
        return super()._commit(ctx, reason=reason)

    def nested_invoke(self, parent_ctx, object_id, method, args):
        owner = self.node.owner_node_for(object_id)
        if owner is None or owner is self.node:
            return super().nested_invoke(parent_ctx, object_id, method, args)
        # Remote microshard: commit the caller (§3.1), execute at the
        # owner's runtime now, and record the time/replication charge the
        # replay phase will bill to the owner.
        if parent_ctx.readonly:
            # Read-only transitivity, resolved against the owner (this
            # node may not hold the remote object's metadata).
            try:
                target_readonly = (
                    owner.runtime.type_of(object_id).method_def(method).readonly
                )
            except Exception:
                target_readonly = True  # let the dispatch raise precisely
            if not target_readonly:
                raise InvocationError(
                    f"read-only invocation cannot dispatch mutating method "
                    f"{method!r} on {object_id.short}"
                )
        self._commit(parent_ctx, reason="pre-nested")
        capture = self.node.cluster.capture
        result = owner.runtime.invoke_detailed(
            object_id, method, *args, _depth=parent_ctx.depth + 1, _internal=True
        )
        parent_ctx.sub_results.append(result)
        if capture is not None:
            capture.remote_dispatches.append((owner.name, result))
        return result.value


@dataclass
class ExecutionCapture:
    """What one top-level execution produced, for the replay phase."""

    #: committed batches per node name, in commit order; each node's list
    #: is encoded once, as one replication round, when it is submitted
    batches: dict[str, list[WriteBatch]] = field(default_factory=dict)
    #: (owner node name, sub InvocationResult) for remote nested calls
    remote_dispatches: list[tuple[str, InvocationResult]] = field(default_factory=list)

    def round_for(self, node_name: str) -> tuple[bytes, tuple]:
        """``node_name``'s writes as one encoded round and the ids of the
        objects they touched (``(b"", ())`` when it wrote nothing).  The
        backups of this process apply these very batches when the payload
        reaches them, instead of parsing it back."""
        batches = self.batches.get(node_name)
        if not batches:
            return b"", ()
        return encode_round(batches)

    def local_fuel(self, result: InvocationResult) -> float:
        """Fuel attributable to the executing node: everything except fuel
        of remote nested dispatches (those are billed to their owners)."""
        remote_fuel = sum(sub.total_fuel() for _owner, sub in self.remote_dispatches)
        return max(result.total_fuel() - remote_fuel, 0.0)
