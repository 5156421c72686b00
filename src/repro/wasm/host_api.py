"""The fuel prices of the host functions a guest may call.

A wasm module imports a fixed set of host functions — the object's own
fields, nested invocation, and the ``now``/``random`` utilities;
everything else is sealed off.  The LambdaObjects runtime implements that
surface as the invocation context (:mod:`repro.core.context`).
:class:`OpCosts` assigns a fuel price to every host operation so metering
and the simulator's CPU-time model stay in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


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
