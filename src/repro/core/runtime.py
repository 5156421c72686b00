"""LocalRuntime: single-process embedded LambdaObjects.

This is the model's reference implementation: one storage backend, one
scheduler-free executor (invocations are sequential, so per-object mutual
exclusion holds trivially), full invocation-linearizability semantics,
and the consistent result cache.  It is also the one invocation entry
point of both platforms: a LambdaStore storage node (:mod:`repro.cluster`)
and a serverless compute node each run a client request through
:meth:`LocalRuntime.invoke_request`, the first over its local store, the
second over remote storage.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from typing import Any, Callable, Optional

from repro.errors import (
    InvocationError,
    ObjectExistsError,
    PrivateMethodError,
    Trap,
    UnknownObjectError,
    UnknownTypeError,
)
from repro.core import keyspace
from repro.core.caching import ResultCache, args_digest
from repro.core.context import InvocationContext
from repro.core.fields import FieldKind, decode_value, encode_value
from repro.core.ids import ObjectId
from repro.core.invocation import InvocationResult, InvocationStats
from repro.core.object_type import ObjectType
from repro.core.storage import MemoryBackend, StorageBackend
from repro.core.writeset import WriteSet
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.kvstore.batch import WriteBatch
from repro.wasm.fuel import DEFAULT_MEMORY_LIMIT, FuelMeter
from repro.wasm.host_api import OpCosts

#: maximum nested-call depth before the runtime assumes a cycle
MAX_CALL_DEPTH = 64

#: nullcontext is stateless, so one instance serves every untraced span
_NULL_SPAN = nullcontext()


class _LogicalClock:
    """Fallback clock: strictly increasing, deterministic."""

    def __init__(self) -> None:
        self._ticks = 0.0

    def __call__(self) -> float:
        self._ticks += 1.0
        return self._ticks


class LocalRuntime:
    """An embedded LambdaObjects runtime over one storage backend."""

    def __init__(
        self,
        storage: Optional[StorageBackend] = None,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        enable_cache: bool = True,
        fuel_budget: Optional[float] = None,
        costs: Optional[OpCosts] = None,
        memory_limit_bytes: int = DEFAULT_MEMORY_LIMIT,
        registry: Optional[MetricsRegistry] = None,
        metrics_labels: Optional[dict] = None,
        trace_node: str = "",
    ) -> None:
        self.storage: StorageBackend = storage if storage is not None else MemoryBackend()
        self._types: dict[str, ObjectType] = {}
        #: encoded meta value -> the type name it decodes to (one entry
        #: per type name ever stored; ``type_of`` runs per invocation)
        self._type_names: dict[bytes, str] = {}
        #: type name -> its encoded meta value, one object per registered
        #: type for every object created here
        self._type_metas: dict[str, bytes] = {}
        self._id_rng = random.Random(seed)
        #: PRNG exposed to guests via ctx.random()
        self.guest_rng = random.Random(seed + 1)
        self.clock = clock or _LogicalClock()
        self.cache: Optional[ResultCache] = (
            ResultCache(registry=registry, labels=metrics_labels) if enable_cache else None
        )
        self._fuel_budget = fuel_budget
        self.costs = costs or OpCosts()
        #: each invocation context's guest-memory allowance
        self.memory_limit_bytes = memory_limit_bytes
        self.stats = InvocationStats(registry, metrics_labels)
        # Counter handles, resolved once for the invoke hot path.
        self._c_invocations = self.stats.handle("invocations")
        self._c_nested_invocations = self.stats.handle("nested_invocations")
        self._c_commits = self.stats.handle("commits")
        self._c_aborts = self.stats.handle("aborts")
        self._c_cache_hits = self.stats.handle("cache_hits")
        self._c_cache_misses = self.stats.handle("cache_misses")
        self._c_fuel_used = self.stats.handle("fuel_used")
        #: span tracer for invocation-lifecycle tracing, set by the
        #: platform's ``enable_tracing`` (one tracer across nodes;
        #: ``trace_node`` names this runtime's host)
        self.tracer: Optional[SpanTracer] = None
        self.trace_node = trace_node
        #: optional hook called with each committed WriteBatch (the
        #: replication layer ships these to backups)
        self.commit_hook: Optional[Callable[[WriteBatch], None]] = None

    # -- types -------------------------------------------------------------

    def register_type(self, object_type: ObjectType) -> None:
        """Register (or replace) an object type by name."""
        self._types[object_type.name] = object_type
        self._type_metas[object_type.name] = encode_value(object_type.name)

    def type_named(self, name: str) -> ObjectType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownTypeError(f"no registered object type {name!r}") from None

    # -- object lifecycle --------------------------------------------------

    def create_object(
        self,
        type_name: str,
        object_id: Optional[ObjectId] = None,
        initial: Optional[dict[str, Any]] = None,
    ) -> ObjectId:
        """Instantiate an object of ``type_name``; returns its id.

        ``initial`` maps value fields to values and collection fields to
        either a list (appended in order) or a dict of entries.
        """
        oid = object_id if object_id is not None else ObjectId.generate(self._id_rng)
        batch = self.build_create_batch(type_name, oid, initial)
        return self.create_object_from_batch(oid, batch)

    def build_create_batch(
        self,
        type_name: str,
        oid: ObjectId,
        initial: Optional[dict[str, Any]] = None,
    ) -> WriteBatch:
        """Validate ``initial`` and encode the creation write batch.

        Split out from :meth:`create_object` so a replicated platform can
        encode the initial state once and apply the same batch to every
        replica member (see ``Cluster.create_object``) instead of
        re-encoding per member.  Equal values in the batch are one
        ``bytes`` object, as in a request's writes (see
        :class:`~repro.core.writeset.WriteSet`), and the meta value is the
        one encoded when the type was registered.
        """
        object_type = self.type_named(type_name)
        meta = self._type_metas[type_name]
        values = {meta: meta}

        def encoded(value: Any) -> bytes:
            data = encode_value(value)
            return values.setdefault(data, data)

        batch = WriteBatch()
        batch.put(keyspace.meta_key(oid), meta)
        initial = dict(initial or {})
        for spec in object_type.fields.values():
            provided = initial.pop(spec.name, None)
            if spec.kind == FieldKind.VALUE:
                value = provided if provided is not None else spec.default
                if value is not None:
                    batch.put(keyspace.value_key(oid, spec.name), encoded(value))
            elif provided is not None:
                entries = (
                    provided.items()
                    if isinstance(provided, dict)
                    else ((keyspace.append_entry_key(i + 1), v) for i, v in enumerate(provided))
                )
                count = 0
                for entry_key, value in entries:
                    batch.put(keyspace.collection_key(oid, spec.name, entry_key), encoded(value))
                    count += 1
                if not isinstance(provided, dict):
                    batch.put(keyspace.counter_key(oid, spec.name), encoded(count))
        if initial:
            object_type.field(next(iter(initial)))  # raises UnknownFieldError
        return batch

    def create_object_from_batch(self, oid: ObjectId, batch: WriteBatch) -> ObjectId:
        """Apply a pre-built creation batch (exists-check + commit)."""
        if self.storage.get(keyspace.meta_key(oid)) is not None:
            raise ObjectExistsError(f"object {oid.short} already exists")
        self.storage.apply(batch)
        return oid

    def delete_object(self, object_id: ObjectId) -> None:
        """Remove an object and every key it owns."""
        prefix = keyspace.object_prefix(object_id)
        batch = WriteBatch()
        for key, _value in self.storage.iterate(prefix, keyspace.prefix_end(prefix)):
            batch.delete(key)
        if not batch:
            raise UnknownObjectError(f"object {object_id.short} does not exist")
        self.storage.apply(batch)
        if self.cache is not None:
            self.cache.invalidate_keys([key for _kind, key, _value in batch.items()])

    def object_exists(self, object_id: ObjectId) -> bool:
        return self.storage.get(keyspace.meta_key(object_id)) is not None

    def type_of(self, object_id: ObjectId) -> ObjectType:
        """The object's type, raising :class:`UnknownObjectError` if absent."""
        data = self.storage.get(keyspace.meta_key(object_id))
        if data is None:
            raise UnknownObjectError(f"object {object_id.short} does not exist")
        name = self._type_names.get(data)
        if name is None:
            name = self._type_names[data] = decode_value(data)
        return self.type_named(name)

    # -- invocation ----------------------------------------------------------

    def invoke(self, object_id: ObjectId, method: str, *args: Any) -> Any:
        """Invoke a public method; returns its value."""
        return self.invoke_detailed(object_id, method, *args).value

    def invoke_request(self, request: Any, root=None) -> InvocationResult:
        """Run a client request's invocation with the request's root span
        active, so invoke / cache / commit / nested-call spans nest under
        it (guest execution is synchronous: no other process interleaves)."""
        if self.tracer is not None and root is not None:
            with self.tracer.activate(root):
                return self.invoke_detailed(
                    request.object_id, request.method, *request.args
                )
        return self.invoke_detailed(request.object_id, request.method, *request.args)

    def invoke_detailed(
        self,
        object_id: ObjectId,
        method: str,
        *args: Any,
        _depth: int = 0,
        _internal: bool = False,
        _caller: Optional[WriteSet] = None,
    ) -> InvocationResult:
        """Invoke a method and return the full :class:`InvocationResult`.

        A nested invocation passes its caller's write set as ``_caller``,
        so the whole request writes through one value table."""
        if _depth > MAX_CALL_DEPTH:
            raise InvocationError(
                f"call depth exceeded {MAX_CALL_DEPTH} (cycle of nested invocations?)"
            )
        object_id = ObjectId(object_id)
        with self._span("invoke", object=object_id.short, method=method, depth=_depth):
            object_type = self.type_of(object_id)
            method_def = object_type.method_def(method)
            if not method_def.public and not _internal:
                raise PrivateMethodError(
                    f"{object_type.name}.{method} is not public; only other "
                    "function invocations may call it"
                )

            digest = None
            if method_def.readonly and self.cache is not None:
                try:
                    digest = args_digest(args)
                except Exception:
                    digest = None  # unhashable args: skip caching
                if digest is not None:
                    with self._span("cache.lookup") as lookup_span:
                        hit, value = self.cache.lookup(
                            object_id, method, digest, self.storage.get
                        )
                        if lookup_span is not None:
                            lookup_span.attrs["hit"] = hit
                    if hit:
                        self._c_cache_hits.inc()
                        self._c_invocations.inc()
                        return InvocationResult(
                            object_id=object_id,
                            method=method,
                            value=value,
                            fuel_used=self.costs.utility,  # a cache probe is ~free
                            read_set={},
                            cache_hit=True,
                        )
                    self._c_cache_misses.inc()

            fuel = FuelMeter(self._fuel_budget if self._fuel_budget else FuelMeter.UNLIMITED)
            # Read tracking exists for the consistent cache; skip the
            # per-read digesting entirely when the cache is off.
            track_reads = self.cache is not None
            writeset = (
                WriteSet(self.storage.get, track_reads)
                if _caller is None
                else _caller.nested(self.storage.get, track_reads)
            )
            ctx = InvocationContext(
                runtime=self,
                object_id=object_id,
                object_type=object_type,
                writeset=writeset,
                fuel=fuel,
                costs=self.costs,
                readonly=method_def.readonly,
                depth=_depth,
            )
            fuel.consume(self.costs.call_base)

            try:
                value = method_def.call(ctx, fuel, *args)
            except Trap as trap:
                self._c_aborts.inc()
                # Buffered writes of the *current segment* are discarded; commits
                # made before nested calls stand (they were separate invocations).
                raise InvocationError(str(trap)) from trap

            read_set = writeset.read_set()
            self._commit(ctx, reason="final")

            if (
                method_def.readonly
                and self.cache is not None
                and digest is not None
                and ctx.deterministic
                and not ctx.dispatched_nested
            ):
                self.cache.store(object_id, method, digest, value, read_set)

            self._c_invocations.inc()
            self._c_fuel_used.inc(fuel.used)
            return InvocationResult(
                object_id=object_id,
                method=method,
                value=value,
                fuel_used=fuel.used,
                read_set=read_set,
                sub_results=ctx.sub_results,
            )

    # -- nested calls (invoked by the context) ------------------------------

    def nested_invoke(
        self, parent_ctx: InvocationContext, object_id: ObjectId, method: str, args: tuple
    ) -> Any:
        """Dispatch a nested invocation, committing the parent first (§3.1)."""
        self._check_nested_readonly(parent_ctx, self, object_id, method)
        self._commit(parent_ctx, reason="pre-nested")
        self._c_nested_invocations.inc()
        result = self.invoke_detailed(
            object_id,
            method,
            *args,
            _depth=parent_ctx.depth + 1,
            _internal=True,
            _caller=parent_ctx.writeset,
        )
        parent_ctx.sub_results.append(result)
        return result.value

    @staticmethod
    def _check_nested_readonly(
        parent_ctx: InvocationContext,
        owner_runtime: "LocalRuntime",
        object_id: ObjectId,
        method: str,
    ) -> None:
        """Read-only is transitive: a read-only invocation may only nest
        read-only calls.  (Besides being the sane semantic, this is what
        lets read-only invocations run at any replica — a hidden mutating
        dispatch from a replica would fork state.)  The target's type is
        resolved at ``owner_runtime``, the runtime holding the object: a
        caller's node may not hold a remote object's metadata."""
        if not parent_ctx.readonly:
            return
        try:
            target_readonly = owner_runtime.type_of(object_id).method_def(method).readonly
        except Exception:
            return  # let the dispatch itself produce the precise error
        if not target_readonly:
            raise InvocationError(
                f"read-only invocation cannot dispatch mutating method "
                f"{method!r} on {object_id.short}"
            )

    def _commit(self, ctx: InvocationContext, reason: str = "final") -> None:
        """Commit a context's buffered writes as one atomic batch.

        ``reason`` is trace metadata: ``"pre-nested"`` marks the §3.1
        caller-commit split (the caller's buffered writes commit as their
        own invocation segment before a nested call dispatches).
        """
        writeset = ctx.writeset
        if not writeset.has_writes:
            return
        written = writeset.written_keys()
        span = _NULL_SPAN
        if self.tracer is not None:
            span = self._span("commit", reason=reason, keys=len(written))
        with span:
            batch = writeset.to_batch()
            self.storage.apply(batch)
            if self.commit_hook is not None:
                self.commit_hook(batch)
            if self.cache is not None:
                self.cache.invalidate_keys(written)
            self._c_commits.inc()
            writeset.clear()

    def _span(self, name: str, **attrs):
        """A tracer span on the current stack, or a no-op without a tracer."""
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, node=self.trace_node, **attrs)
