"""The LambdaObjects data and compute model (the paper's contribution).

Data is encapsulated in *objects* instantiated from *object types*; each
type declares fields (single values or keyed collections) and methods.
Methods execute where the data lives, may only modify their own object,
and compose by invoking methods of other objects.  Invocations are
*invocation linearizable* (§3.1): atomic, isolated, and immediately
visible once committed — with nested calls acting as commit points.

Quickstart::

    from repro.core import (
        CollectionField, LocalRuntime, ObjectType, ValueField, method, readonly_method,
    )

    def deposit(self, amount):
        self.set("balance", self.get("balance") + amount)

    def balance(self):
        return self.get("balance")

    account = ObjectType(
        "Account",
        fields=[ValueField("balance")],
        methods=[method(deposit), readonly_method(balance)],
    )

    runtime = LocalRuntime()
    runtime.register_type(account)
    oid = runtime.create_object("Account", initial={"balance": 100})
    runtime.invoke(oid, "deposit", 50)
    assert runtime.invoke(oid, "balance") == 150
"""

from repro.core.caching import ResultCache
from repro.core.context import InvocationContext, ObjectProxy
from repro.core.fields import CollectionField, FieldKind, FieldSpec, ValueField
from repro.core.ids import ObjectId
from repro.core.invocation import InvocationResult, InvocationStats
from repro.core.linearizability import (
    HistoryRecorder,
    RecordedInvocation,
    check_linearizable,
    register_model,
)
from repro.core.method import method, readonly_method
from repro.core.object_type import ObjectType
from repro.core.runtime import LocalRuntime
from repro.core.storage import KVBackend, MemoryBackend, StorageBackend
from repro.core.writeset import WriteSet

__all__ = [
    "CollectionField",
    "FieldKind",
    "FieldSpec",
    "HistoryRecorder",
    "InvocationContext",
    "InvocationResult",
    "InvocationStats",
    "KVBackend",
    "LocalRuntime",
    "MemoryBackend",
    "ObjectId",
    "ObjectProxy",
    "ObjectType",
    "RecordedInvocation",
    "ResultCache",
    "StorageBackend",
    "ValueField",
    "WriteSet",
    "check_linearizable",
    "method",
    "readonly_method",
    "register_model",
]
