"""A WebAssembly-like isolation runtime (simulated).

LambdaStore executes object methods "compiled to WebAssembly" so untrusted
code can run inside the storage process with software-based isolation and
metering (paper §4.2).  This package reproduces that *contract* without a
real wasm engine (see DESIGN.md §2):

- a :class:`GuestFunction` is one method's code; it runs against the
  invocation context it is handed (:mod:`repro.core.context`), the only
  surface a guest can touch — the same narrow surface a wasm import
  object gives;
- each invocation gets its own :class:`FuelMeter` and :class:`MemoryMeter`;
- runaway computation traps (:class:`~repro.errors.FuelExhausted`), guest
  exceptions trap (:class:`~repro.errors.Trap`), and traps abort the
  invocation without committing.

Fuel doubles as the execution-cost model: the cluster simulator converts
fuel consumed into simulated CPU milliseconds, priced by :class:`OpCosts`.
"""

from repro.wasm.fuel import FuelMeter, MemoryMeter
from repro.wasm.host_api import OpCosts
from repro.wasm.module import GuestFunction

__all__ = ["FuelMeter", "GuestFunction", "MemoryMeter", "OpCosts"]
