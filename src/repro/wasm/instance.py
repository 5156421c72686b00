"""Instances: one sandboxed execution environment per invocation.

An instance binds a module to a host API object, a fuel meter, and a
memory allowance.  Calling an export runs the guest function with traps:
guest exceptions, fuel exhaustion, and memory overruns all surface as
:class:`~repro.errors.Trap` subclasses, leaving the host free to abort the
invocation without partial effects (writes are buffered host-side).
"""

from __future__ import annotations

from typing import Any

from repro.errors import Trap, WasmError
from repro.wasm.fuel import FuelMeter, MemoryMeter
from repro.wasm.host_api import HostAPI
from repro.wasm.module import Module

DEFAULT_MEMORY_LIMIT = 64 * 1024 * 1024


class Instance:
    """A single-use sandbox executing one module against one host API."""

    def __init__(
        self,
        module: Module,
        host: HostAPI,
        fuel: FuelMeter | None = None,
        memory_limit_bytes: int = DEFAULT_MEMORY_LIMIT,
    ) -> None:
        self.module = module
        self.host = host
        self.fuel = fuel or FuelMeter()
        #: shared with the host API, which charges it when marshalling
        #: values into the guest
        self.memory = MemoryMeter(memory_limit_bytes)
        self._consumed = False

    def call(self, function_name: str, *args: Any) -> Any:
        """Run an exported function to completion; single use.

        Host-originated traps (fuel, memory) and any exception escaping the
        guest become :class:`Trap`; the original exception is chained as
        ``__cause__`` for debugging.
        """
        if self._consumed:
            raise WasmError("instance already used; create one per invocation")
        self._consumed = True
        function = self.module.export(function_name)
        self.fuel.consume(function.compute_fuel)
        try:
            return function.fn(self.host, *args)
        except Trap:
            raise
        except Exception as error:
            raise Trap(
                f"guest function {self.module.name}.{function_name} trapped: "
                f"{type(error).__name__}: {error}"
            ) from error
