"""Events: the unit of synchronisation in the simulation.

An :class:`Event` starts *pending*, is triggered exactly once (either
``succeed`` or ``fail``), and then notifies its callbacks.  Processes yield
events to suspend until they trigger.  :class:`AllOf` / :class:`AnyOf`
combine events.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError

_PENDING = object()


class Event:
    """A one-shot event owned by a :class:`~repro.sim.core.Simulation`."""

    __slots__ = ("_sim", "_name", "_value", "_ok", "_callbacks", "_defused")

    def __init__(self, sim: "Any", name: str = "") -> None:
        self._sim = sim
        self._name = name
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._callbacks: list[Callable[[Event], None]] = []
        #: set True when a failure was consumed (so unhandled failures can
        #: be detected by the loop if desired)
        self._defused = False

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event already succeeded or failed."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._value

    # -- triggering -----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure, delivering ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._trigger(False, exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} triggered twice")
        self._ok = ok
        self._value = value
        # Callbacks run at the *current* simulated instant, but through the
        # scheduler so triggering is re-entrancy safe.  With nobody
        # listening there is nothing to run and no entry to schedule: the
        # event is already dispatched, and ``add_callback`` schedules each
        # late listener by itself.
        if self._callbacks:
            self._sim._schedule_now(self._dispatch)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- waiting --------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event was already dispatched — it triggered and its
        listeners, if it had any, have run — the callback gets a scheduler
        entry of its own at the current instant, preserving FIFO ordering.
        Between trigger and dispatch it joins the listeners the pending
        dispatch entry will run.
        """
        if self._value is not _PENDING and not self._callbacks:
            self._sim._schedule_now(partial(callback, self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        label = f" {self._name}" if self._name else ""
        return f"<Event{label} {state}>"


class _Condition(Event):
    """Base for events that trigger based on a set of child events.

    A condition listens to its children and keeps no reference to them:
    a child that never triggers (the signal that lost to its deadline)
    then holds the condition through its listener list, but nothing holds
    the child back, so both are freed by reference count.
    """

    #: distinct children not heard from yet (``AllOf`` counts it down)
    __slots__ = ("_missing",)

    def __init__(self, sim: Any, events: Iterable[Event]) -> None:
        super().__init__(sim)
        # Distinct children, in first-seen order: the same event listed
        # twice is one child.
        children = dict.fromkeys(events)
        if not children:
            self.succeed({})
            return
        self._missing = len(children)
        for event in children:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child succeeds; fails on the first child failure.

    The success value is a dict mapping each child event to its value.
    """

    __slots__ = ("_results",)

    def __init__(self, sim: Any, events: Iterable[Event]) -> None:
        self._results: Optional[dict[Event, Any]] = {}
        super().__init__(sim, events)

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self._results = None
            self.fail(event._value)
            return
        self._results[event] = event._value
        self._missing -= 1
        if not self._missing:
            results, self._results = self._results, None
            self.succeed(results)


class AnyOf(_Condition):
    """Succeeds when the first child succeeds; fails if the first child
    to trigger failed.

    The success value is a dict with the (single) triggering event.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed({event: event._value})
