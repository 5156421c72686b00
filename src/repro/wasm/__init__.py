"""A WebAssembly-like isolation runtime (simulated).

LambdaStore executes object methods "compiled to WebAssembly" so untrusted
code can run inside the storage process with software-based isolation and
metering (paper §4.2).  This package reproduces that *contract* without a
real wasm engine (see DESIGN.md §2):

- functions live in a compiled :class:`Module` (the unit of deployment);
- each invocation runs in a fresh :class:`Instance` with its own fuel
  budget and memory allowance;
- the guest can only touch the outside world through the host API it was
  instantiated with — the same narrow surface a wasm import object gives;
- runaway computation traps (:class:`~repro.errors.FuelExhausted`), guest
  exceptions trap (:class:`~repro.errors.Trap`), and traps abort the
  invocation without committing.

Fuel doubles as the execution-cost model: the cluster simulator converts
fuel consumed into simulated CPU milliseconds.
"""

from repro.wasm.fuel import FuelMeter, MemoryMeter
from repro.wasm.host_api import HostAPI, OpCosts
from repro.wasm.instance import Instance
from repro.wasm.module import GuestFunction, Module

__all__ = ["FuelMeter", "GuestFunction", "HostAPI", "Instance", "MemoryMeter", "Module", "OpCosts"]
