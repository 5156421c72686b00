"""LocalRuntime: single-process embedded LambdaObjects.

This is the model's reference implementation: one storage backend, one
scheduler-free executor (invocations are sequential, so per-object mutual
exclusion holds trivially), full invocation-linearizability semantics,
and the consistent result cache.  The distributed LambdaStore
(:mod:`repro.cluster`) runs the same context/commit machinery on every
storage node; the serverless baseline reuses it with remote storage.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from typing import Any, Callable, Iterable, Optional

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
from repro.wasm.fuel import FuelMeter
from repro.wasm.host_api import OpCosts
from repro.wasm.instance import DEFAULT_MEMORY_LIMIT, Instance

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
        cache_entries: int = 4096,
        fuel_budget: Optional[float] = None,
        costs: Optional[OpCosts] = None,
        memory_limit_bytes: int = DEFAULT_MEMORY_LIMIT,
        registry: Optional[MetricsRegistry] = None,
        metrics_labels: Optional[dict] = None,
        tracer: Optional[SpanTracer] = None,
        trace_node: str = "",
    ) -> None:
        self.storage: StorageBackend = storage if storage is not None else MemoryBackend()
        self._types: dict[str, ObjectType] = {}
        #: encoded meta value -> the type name it decodes to (one entry
        #: per type name ever stored; ``type_of`` runs per invocation)
        self._type_names: dict[bytes, str] = {}
        self._id_rng = random.Random(seed)
        #: PRNG exposed to guests via ctx.random()
        self.guest_rng = random.Random(seed + 1)
        self.clock = clock or _LogicalClock()
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_entries, registry, metrics_labels) if enable_cache else None
        )
        self._fuel_budget = fuel_budget
        self.costs = costs or OpCosts()
        self._memory_limit = memory_limit_bytes
        self.stats = InvocationStats(registry, metrics_labels)
        # Preresolved counter cells for the invoke hot path (see
        # StatsView.cell): increments land in a handle-local slot and
        # fold into the registry at read/sample time.
        self._c_invocations = self.stats.cell("invocations")
        self._c_nested_invocations = self.stats.cell("nested_invocations")
        self._c_commits = self.stats.cell("commits")
        self._c_aborts = self.stats.cell("aborts")
        self._c_cache_hits = self.stats.cell("cache_hits")
        self._c_cache_misses = self.stats.cell("cache_misses")
        self._c_fuel_used = self.stats.cell("fuel_used")
        #: span tracer for invocation-lifecycle tracing (platforms share one
        #: tracer across nodes; ``trace_node`` names this runtime's host)
        self.tracer = tracer
        self.trace_node = trace_node
        #: optional hook called with each top-level InvocationResult
        self.on_invocation: Optional[Callable[[InvocationResult], None]] = None
        #: optional hook called with each committed WriteBatch (the
        #: replication layer ships these to backups)
        self.commit_hook: Optional[Callable[[WriteBatch], None]] = None

    # -- types -------------------------------------------------------------

    def register_type(self, object_type: ObjectType) -> None:
        """Register (or replace) an object type by name."""
        self._types[object_type.name] = object_type

    def register_types(self, object_types: Iterable[ObjectType]) -> None:
        for object_type in object_types:
            self.register_type(object_type)

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
        re-encoding per member.
        """
        object_type = self.type_named(type_name)
        batch = WriteBatch()
        batch.put(keyspace.meta_key(oid), encode_value(type_name))
        initial = dict(initial or {})
        for spec in object_type.fields.values():
            provided = initial.pop(spec.name, None)
            if spec.kind == FieldKind.VALUE:
                value = provided if provided is not None else spec.default
                if value is not None:
                    batch.put(keyspace.value_key(oid, spec.name), encode_value(value))
            elif provided is not None:
                entries = (
                    provided.items()
                    if isinstance(provided, dict)
                    else ((keyspace.append_entry_key(i + 1), v) for i, v in enumerate(provided))
                )
                count = 0
                for entry_key, value in entries:
                    batch.put(
                        keyspace.collection_key(oid, spec.name, entry_key),
                        encode_value(value),
                    )
                    count += 1
                if not isinstance(provided, dict):
                    batch.put(keyspace.counter_key(oid, spec.name), encode_value(count))
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

    def invoke_detailed(
        self,
        object_id: ObjectId,
        method: str,
        *args: Any,
        _depth: int = 0,
        _internal: bool = False,
    ) -> InvocationResult:
        """Invoke a method and return the full :class:`InvocationResult`."""
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
                            written_keys=[],
                            commit_sequence=self.storage.last_sequence,
                            parts=0,
                            cache_hit=True,
                        )
                    self._c_cache_misses.inc()

            fuel = FuelMeter(self._fuel_budget if self._fuel_budget else FuelMeter.UNLIMITED)
            # Read tracking exists for the consistent cache; skip the
            # per-read digesting entirely when the cache is off.
            writeset = WriteSet(self.storage.get, track_reads=self.cache is not None)
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
            instance = Instance(
                object_type.module, ctx, fuel=fuel, memory_limit_bytes=self._memory_limit
            )
            ctx.bind_memory(instance.memory)
            fuel.consume(self.costs.call_base)

            try:
                value = instance.call(method, *args)
            except Trap as trap:
                self._c_aborts.inc()
                # Buffered writes of the *current segment* are discarded; commits
                # made before nested calls stand (they were separate invocations).
                raise InvocationError(str(trap)) from trap

            read_set = writeset.read_set()
            commit_sequence = self._commit(ctx, reason="final")

            result = InvocationResult(
                object_id=object_id,
                method=method,
                value=value,
                fuel_used=fuel.used,
                read_set=read_set,
                written_keys=ctx.all_written_keys,
                commit_sequence=commit_sequence,
                parts=max(ctx.parts, 1),
                sub_results=ctx.sub_results,
                logs=ctx.logs,
            )

            if (
                method_def.readonly
                and self.cache is not None
                and digest is not None
                and ctx.deterministic
                and not ctx.dispatched_nested
            ):
                self.cache.store(object_id, method, digest, value, result.read_set)

            self._c_invocations.inc()
            self._c_fuel_used.inc(fuel.used)
            if _depth == 0 and self.on_invocation is not None:
                self.on_invocation(result)
            return result

    # -- nested calls (invoked by the context) ------------------------------

    def nested_invoke(
        self, parent_ctx: InvocationContext, object_id: ObjectId, method: str, args: tuple
    ) -> Any:
        """Dispatch a nested invocation, committing the parent first (§3.1)."""
        self._check_nested_readonly(parent_ctx, object_id, method)
        self._commit(parent_ctx, reason="pre-nested")
        self._c_nested_invocations.inc()
        result = self.invoke_detailed(
            object_id, method, *args, _depth=parent_ctx.depth + 1, _internal=True
        )
        parent_ctx.sub_results.append(result)
        return result.value

    def _check_nested_readonly(
        self, parent_ctx: InvocationContext, object_id: ObjectId, method: str
    ) -> None:
        """Read-only is transitive: a read-only invocation may only nest
        read-only calls.  (Besides being the sane semantic, this is what
        lets read-only invocations run at any replica — a hidden mutating
        dispatch from a replica would fork state.)"""
        if not parent_ctx.readonly:
            return
        try:
            target_readonly = self.type_of(object_id).method_def(method).readonly
        except Exception:
            return  # let the dispatch itself produce the precise error
        if not target_readonly:
            raise InvocationError(
                f"read-only invocation cannot dispatch mutating method "
                f"{method!r} on {object_id.short}"
            )

    def _commit(self, ctx: InvocationContext, reason: str = "final") -> int:
        """Commit a context's buffered writes as one atomic batch.

        ``reason`` is trace metadata: ``"pre-nested"`` marks the §3.1
        caller-commit split (the caller's buffered writes commit as their
        own invocation segment before a nested call dispatches).
        """
        writeset = ctx.writeset
        if not writeset.has_writes:
            return self.storage.last_sequence
        written = writeset.written_keys()
        span = _NULL_SPAN
        if self.tracer is not None:
            span = self._span("commit", reason=reason, keys=len(written))
        with span:
            batch = writeset.to_batch()
            sequence = self.storage.apply(batch)
            if self.commit_hook is not None:
                self.commit_hook(batch)
            if self.cache is not None:
                self.cache.invalidate_keys(written)
            ctx.all_written_keys.extend(written)
            ctx.parts += 1
            self._c_commits.inc()
            writeset.clear()
            return sequence

    def _span(self, name: str, **attrs):
        """A tracer span on the current stack, or a no-op without a tracer."""
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, node=self.trace_node, **attrs)
