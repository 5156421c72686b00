"""Serializable multi-invocation transactions (the paper's future work).

§3.1: "We envision that future versions of the LambdaObjects model will
support serializable transactions spanning multiple function calls [...]
Conveniently, embedding execution into the database itself allows using
proven transaction processing protocols from existing database management
systems instead of having to develop an entirely new mechanism."

This module does exactly that on the embedded runtime: strict two-phase
locking at object granularity (the natural lock unit LambdaObjects
already gives us) with wound-wait deadlock avoidance.  Within a
transaction, invocations share one write set: nothing commits until
``commit()``, nested calls join the transaction, and other (plain or
transactional) invocations never observe partial state.

Usage::

    manager = TransactionManager(runtime)
    with manager.transaction() as txn:
        txn.invoke(account_a, "withdraw", 10)
        txn.invoke(account_b, "deposit", 10)
    # both committed atomically; on exception both rolled back

Scope: single-runtime transactions.  Distributed commit across shards
would layer two-phase commit over the same lock table; that remains
future work here as in the paper.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.errors import InvocationError, PrivateMethodError, ReproError, Trap
from repro.core.context import InvocationContext
from repro.core.ids import ObjectId
from repro.core.runtime import LocalRuntime, MAX_CALL_DEPTH
from repro.core.writeset import WriteSet
from repro.wasm.fuel import FuelMeter
from repro.wasm.instance import Instance


class TransactionAborted(ReproError):
    """The transaction lost a conflict (or was explicitly rolled back);
    retry it from the top."""


class _TxnRuntimeAdapter:
    """What an in-transaction invocation context sees as its 'runtime'.

    Reads hit the real committed storage (the transaction's own writes
    overlay it via the shared write set); nested invocations re-enter the
    transaction manager so they join the transaction.
    """

    def __init__(self, manager: "TransactionManager", txn: "Transaction") -> None:
        self._manager = manager
        self._txn = txn
        runtime = manager.runtime
        self.storage = runtime.storage
        self.clock = runtime.clock
        self.guest_rng = runtime.guest_rng
        self.costs = runtime.costs

    def nested_invoke(
        self, parent_ctx: InvocationContext, object_id: ObjectId, method: str, args: tuple
    ) -> Any:
        if parent_ctx.depth + 1 > MAX_CALL_DEPTH:
            raise InvocationError("transactional call depth exceeded")
        return self._manager._invoke(
            self._txn, object_id, method, args, depth=parent_ctx.depth + 1, internal=True
        )


class Transaction:
    """One open transaction: shared write set + held locks."""

    def __init__(self, manager: "TransactionManager", txn_id: int) -> None:
        self._manager = manager
        self.txn_id = txn_id  # doubles as the wound-wait timestamp (lower = older)
        self.writeset = WriteSet(manager.runtime.storage.get)
        self.locks: set[str] = set()
        self.state = "active"  # active | committed | aborted
        self.invocations = 0

    # -- public API ------------------------------------------------------

    def invoke(self, object_id: ObjectId, method: str, *args: Any) -> Any:
        """Invoke a public method inside this transaction."""
        self._check_active()
        return self._manager._invoke(self, ObjectId(object_id), method, args)

    def commit(self) -> None:
        """Atomically publish every buffered write and release locks."""
        self._check_active()
        self._manager._commit(self)

    def abort(self) -> None:
        """Discard all buffered writes and release locks."""
        if self.state == "active":
            self._manager._abort(self)

    @property
    def is_active(self) -> bool:
        return self.state == "active"

    def _check_active(self) -> None:
        if self.state != "active":
            raise TransactionAborted(f"transaction {self.txn_id} is {self.state}")

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self.abort()
        elif self.state == "active":
            self.commit()


class TransactionManager:
    """Coordinates transactions over one :class:`LocalRuntime`.

    Concurrency control is strict 2PL with **wound-wait**: when a
    transaction requests a lock held by a *younger* transaction, the
    younger one is wounded (aborted); when the holder is *older*, the
    requester aborts itself immediately (there is no blocking in a
    single-threaded runtime, so "wait" degenerates to abort-and-retry).
    Both outcomes surface as :class:`TransactionAborted`.
    """

    def __init__(self, runtime: LocalRuntime) -> None:
        self.runtime = runtime
        self._ids = itertools.count(1)
        #: object key -> owning transaction
        self._lock_table: dict[str, Transaction] = {}
        self.stats = {"begun": 0, "committed": 0, "aborted": 0, "wounds": 0}

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a new transaction."""
        txn = Transaction(self, next(self._ids))
        self.stats["begun"] += 1
        return txn

    def transaction(self) -> Transaction:
        """Alias for :meth:`begin`, reads well in ``with`` statements."""
        return self.begin()

    def run(self, body, max_attempts: int = 10) -> Any:
        """Run ``body(txn)`` with automatic retry on conflict aborts."""
        for _attempt in range(max_attempts):
            txn = self.begin()
            try:
                result = body(txn)
                if txn.is_active:
                    txn.commit()
                return result
            except TransactionAborted:
                txn.abort()
                continue
            except Exception:
                txn.abort()
                raise
        raise TransactionAborted(f"transaction gave up after {max_attempts} attempts")

    # -- locking (wound-wait) ------------------------------------------------

    def _acquire(self, txn: Transaction, object_key: str) -> None:
        holder = self._lock_table.get(object_key)
        if holder is txn:
            return
        if holder is not None:
            if txn.txn_id < holder.txn_id:
                # Older requester wounds the younger holder.
                self.stats["wounds"] += 1
                self._abort(holder)
            else:
                # Younger requester aborts itself ("wait" = retry later).
                self._abort(txn)
                raise TransactionAborted(
                    f"transaction {txn.txn_id} lost object {object_key[:8]} to "
                    f"older transaction {holder.txn_id}"
                )
        self._lock_table[object_key] = txn
        txn.locks.add(object_key)

    def _release_all(self, txn: Transaction) -> None:
        for object_key in txn.locks:
            if self._lock_table.get(object_key) is txn:
                del self._lock_table[object_key]
        txn.locks.clear()

    # -- execution ---------------------------------------------------------

    def _invoke(
        self,
        txn: Transaction,
        object_id: ObjectId,
        method: str,
        args: tuple,
        depth: int = 0,
        internal: bool = False,
    ) -> Any:
        txn._check_active()
        runtime = self.runtime
        object_type = self._type_of(txn, object_id)
        method_def = object_type.method_def(method)
        if not method_def.public and not internal:
            raise PrivateMethodError(
                f"{object_type.name}.{method} is not public"
            )
        self._acquire(txn, str(object_id))

        fuel = FuelMeter()
        ctx = InvocationContext(
            runtime=_TxnRuntimeAdapter(self, txn),
            object_id=object_id,
            object_type=object_type,
            writeset=txn.writeset,
            fuel=fuel,
            costs=runtime.costs,
            readonly=method_def.readonly,
            depth=depth,
        )
        instance = Instance(object_type.module, ctx, fuel=fuel)
        ctx.bind_memory(instance.memory)
        txn.invocations += 1
        try:
            return instance.call(method, *args)
        except Trap as trap:
            # A guest failure poisons the whole transaction: §3.1 atomicity
            # extended to the transaction boundary.
            self._abort(txn)
            raise InvocationError(str(trap)) from trap

    def _type_of(self, txn: Transaction, object_id: ObjectId):
        from repro.core import keyspace
        from repro.core.fields import decode_value
        from repro.errors import UnknownObjectError

        # Object creation inside transactions is unsupported, so the meta
        # key can be read through the transaction overlay safely.
        data = txn.writeset.get(keyspace.meta_key(object_id))
        if data is None:
            raise UnknownObjectError(f"object {object_id.short} does not exist")
        return self.runtime.type_named(decode_value(data))

    # -- commit / abort -----------------------------------------------------

    def _commit(self, txn: Transaction) -> None:
        if txn.writeset.has_writes:
            written = txn.writeset.written_keys()
            self.runtime.storage.apply(txn.writeset.to_batch())
            if self.runtime.cache is not None:
                self.runtime.cache.invalidate_keys(written)
        txn.state = "committed"
        txn.writeset.clear()
        self._release_all(txn)
        self.stats["committed"] += 1

    def _abort(self, txn: Transaction) -> None:
        txn.state = "aborted"
        txn.writeset.clear()
        self._release_all(txn)
        self.stats["aborted"] += 1
