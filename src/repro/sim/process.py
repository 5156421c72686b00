"""Generator-based simulated processes.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Each yield suspends the process until the event triggers; a failed
event is re-raised inside the generator so processes can use ordinary
``try/except``.  A process is itself an event that triggers when the
generator finishes (succeeding with its return value) or raises.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import Event


class Process(Event):
    """A running simulated activity; also an event for its completion."""

    __slots__ = ("_generator", "_waiting_on", "_gen_send", "_gen_throw", "_on_event_cb")

    def __init__(self, sim: Any, generator: Generator[Event, Any, Any], name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        # _resume runs once per generator step for every process in the
        # simulation; pre-binding its per-step calls here turns three
        # method creations per resume into slot loads.
        self._gen_send = generator.send
        self._gen_throw = generator.throw
        self._on_event_cb = self._on_event
        # Kick off at the current instant.
        sim._schedule_now(self._start)

    def _start(self) -> None:
        self._resume(None, None)

    @property
    def is_alive(self) -> bool:
        """Whether the process body has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessKilled` into the process at the current instant.

        A process blocked on an event is detached from it; the event may
        still trigger later but will no longer resume this process.
        """
        if self.triggered:
            return
        self._sim._schedule_now(lambda: self._resume(None, ProcessKilled(cause)))

    # -- engine ----------------------------------------------------------

    def _resume(self, value: Any, exc: BaseException | None, _Event: type = Event) -> None:
        if self._ok is not None:
            return  # interrupted after completion, or double resume
        self._waiting_on = None
        try:
            if exc is None:
                target = self._gen_send(value)
            else:
                target = self._gen_throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled:
            # The body chose not to handle the interrupt: treat as a clean
            # cancellation rather than a failure.
            self.succeed(None)
            return
        except BaseException as error:  # noqa: BLE001 - forwarded to waiters
            self.fail(error)
            return

        if not isinstance(target, _Event):
            self._generator.close()
            self.fail(SimulationError(f"process yielded non-event {target!r}"))
            return

        self._waiting_on = target
        target.add_callback(self._on_event_cb)

    def _trigger(self, ok: bool, value: Any) -> None:
        # The body has ended: drop the generator and the callbacks bound
        # to it and to this process.  ``_on_event_cb`` is a method of the
        # process stored on the process — a reference cycle while it
        # stays, which would leave every finished process to the cycle
        # collector.
        self._generator = self._gen_send = self._gen_throw = self._on_event_cb = None
        super()._trigger(ok, value)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # we were interrupted while waiting; stale wakeup
        if event._ok:
            self._resume(event._value, None)
        else:
            event._defused = True
            self._resume(None, event._value)
