"""Guest functions: one object method's code, run under the sandbox contract.

An object type holds its methods as a name → :class:`GuestFunction` table
("each object type holds a set of functions in a format specific to the
implementation, e.g. as ELF binaries" — paper §3).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import LinkError, Trap
from repro.wasm.fuel import FuelMeter


@dataclass(frozen=True)
class GuestFunction:
    """One exported guest function.

    ``fn`` receives the invocation context first, then the call arguments
    — the analogue of a wasm export taking its imports implicitly.
    """

    name: str
    fn: Callable[..., Any]
    public: bool = True
    readonly: bool = False
    #: extra fuel consumed per call on top of metered host operations,
    #: modelling the function's own compute (loop iterations etc.)
    compute_fuel: float = 0.0

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise LinkError(f"function {self.name!r} is not callable")
        signature = inspect.signature(self.fn)
        if not signature.parameters:
            raise LinkError(
                f"function {self.name!r} must accept the host context as its "
                "first parameter"
            )

    def call(self, ctx: Any, fuel: FuelMeter, *args: Any) -> Any:
        """Charge ``compute_fuel``, then run the function against ``ctx``.

        Host-originated traps (fuel, memory) pass through; any other
        exception escaping the guest becomes :class:`Trap`, with the
        original chained as ``__cause__`` for debugging.
        """
        fuel.consume(self.compute_fuel)
        try:
            return self.fn(ctx, *args)
        except Trap:
            raise
        except Exception as error:
            raise Trap(
                f"guest function {ctx.type_name}.{self.name} trapped: "
                f"{type(error).__name__}: {error}"
            ) from error
