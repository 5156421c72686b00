"""Fuel and memory metering: bounded computation and bounded guest memory."""

from __future__ import annotations

from repro.errors import FuelExhausted, MemoryLimitExceeded

#: bytes a guest may have marshalled into it per invocation
DEFAULT_MEMORY_LIMIT = 64 * 1024 * 1024


class FuelMeter:
    """Counts abstract execution units and traps when the budget is gone.

    One fuel unit corresponds loosely to "one cheap host operation"; the
    cost table in :mod:`repro.wasm.host_api` assigns multiples.
    """

    #: budget meaning "no limit" — still counts usage for cost modelling
    UNLIMITED = float("inf")

    def __init__(self, budget: float = UNLIMITED) -> None:
        if budget <= 0:
            raise ValueError(f"fuel budget must be positive, got {budget}")
        self._budget = budget
        self._used = 0.0

    @property
    def used(self) -> float:
        """Fuel consumed so far."""
        return self._used

    def consume(self, units: float) -> None:
        """Burn ``units`` fuel; raises :class:`FuelExhausted` past budget."""
        if units < 0:
            raise ValueError(f"cannot consume negative fuel ({units})")
        self._used += units
        if self._used > self._budget:
            raise FuelExhausted(
                f"fuel exhausted: used {self._used:.0f} of {self._budget:.0f}"
            )


class MemoryMeter:
    """Counts the bytes an invocation marshals into its guest and traps
    past the allowance."""

    def __init__(self, limit_bytes: int) -> None:
        self._limit = limit_bytes
        self._used = 0

    @property
    def used(self) -> int:
        """Bytes charged so far."""
        return self._used

    def charge(self, num_bytes: int) -> None:
        """Account guest memory growth; raises
        :class:`MemoryLimitExceeded` past the allowance."""
        self._used += num_bytes
        if self._used > self._limit:
            raise MemoryLimitExceeded(
                f"instance exceeded memory limit "
                f"({self._used} > {self._limit} bytes)"
            )
