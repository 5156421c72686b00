"""The host-function surface a guest instance may call.

A wasm module imports a fixed set of host functions — the object's own
fields, nested invocation, and the ``now``/``random`` utilities;
everything else is sealed off.  :class:`HostAPI` is the abstract import object the
LambdaObjects runtime implements (its concrete form is the invocation
context in :mod:`repro.core.context`).  :class:`OpCosts` assigns a fuel
price to every host operation so metering and the simulator's CPU-time
model stay in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class OpCosts:
    """Fuel prices for host operations.

    Prices are abstract units; ``bytes_per_unit`` converts payload sizes
    into additional fuel so large values cost proportionally more.
    """

    call_base: float = 50.0  # entering a guest function
    kv_get: float = 10.0
    kv_put: float = 15.0
    kv_delete: float = 12.0
    collection_append: float = 15.0
    collection_scan_per_item: float = 2.0
    invoke_dispatch: float = 30.0  # asking the host to call another object
    utility: float = 1.0  # now(), random()
    bytes_per_unit: int = 64

    def payload(self, num_bytes: int) -> float:
        """Extra fuel for moving ``num_bytes`` across the host boundary."""
        return num_bytes / self.bytes_per_unit


class HostAPI:
    """Abstract host import object.

    Concrete implementations define where data lives and how cross-object
    invocations are dispatched.  The guest never sees anything beyond this
    interface — that is the isolation contract the paper gets from
    WebAssembly.
    """

    # -- storage: the object's own fields ----------------------------------

    def get_value(self, field: str) -> Any:
        """Read a value field of the current object."""
        raise NotImplementedError

    def set_value(self, field: str, value: Any) -> None:
        """Write a value field of the current object."""
        raise NotImplementedError

    def collection_get(self, field: str, key: str) -> Any:
        """Read one entry of a collection field."""
        raise NotImplementedError

    def collection_put(self, field: str, key: str, value: Any) -> None:
        """Write one entry of a collection field."""
        raise NotImplementedError

    def collection_delete(self, field: str, key: str) -> None:
        """Delete one entry of a collection field."""
        raise NotImplementedError

    def collection_append(self, field: str, value: Any) -> str:
        """Append under a fresh monotonically increasing key; returns it."""
        raise NotImplementedError

    def collection_items(self, field: str, limit: Optional[int] = None, reverse: bool = False):
        """Iterate ``(key, value)`` pairs of a collection in key order."""
        raise NotImplementedError

    # -- composition -----------------------------------------------------

    def invoke(self, object_id: Any, method: str, *args: Any) -> Any:
        """Invoke a method on another object (or this one).

        Per the consistency model (§3.1), the host commits the current
        invocation's buffered writes before dispatching.
        """
        raise NotImplementedError

    # -- utilities ---------------------------------------------------------

    def now(self) -> float:
        """Current time; marks the invocation non-deterministic."""
        raise NotImplementedError

    def random(self) -> float:
        """Uniform random in [0, 1); marks the invocation non-deterministic."""
        raise NotImplementedError

    def self_id(self) -> Any:
        """The id of the object this invocation executes against."""
        raise NotImplementedError
