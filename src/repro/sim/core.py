"""The simulation core: clock + scheduler + process factory."""

from __future__ import annotations

import heapq
import random
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, AllOf, AnyOf, Event
from repro.sim.process import Process
from repro.sim.rand import RandomStreams

#: sentinel a :class:`SchedulerPolicy` may return from ``choose`` instead
#: of an index: the scheduler pushes every candidate back and re-collects.
#: Used by policies that mutate external state at a choice point (e.g. a
#: model checker injecting a crash) and then want a fresh candidate set.
RECOLLECT = object()

_entry_seq = itemgetter(1)


class SchedulerPolicy:
    """Chooses which enabled entry the scheduler dispatches next.

    At every step the scheduler collects the *candidates* — all scheduled
    ``(when, seq, fn)`` entries at the earliest pending instant, sorted by
    ``seq`` — and asks the policy to ``choose`` one.  Returning index 0
    everywhere reproduces the built-in FIFO ``(time, seq)`` order; other
    policies may reorder same-instant work (the model checker in
    :mod:`repro.mc` explores every such reordering of message
    deliveries).  Entries are opaque callables; delivery callables carry
    an ``mc_label`` attribute a policy can duck-type on.
    """

    def choose(self, now: float, candidates: list) -> Any:
        """Return an index into ``candidates`` or :data:`RECOLLECT`."""
        raise NotImplementedError


class FifoPolicy(SchedulerPolicy):
    """The default order, expressed as a policy: lowest ``seq`` first.

    Byte-identical to running with no policy installed (the built-in fast
    loops); exists so the policy-driven step core has a reference
    implementation to pin equivalence tests against.
    """

    def choose(self, now: float, candidates: list) -> int:
        return 0


#: cancelled timeouts the heap may carry before it is rebuilt without
#: them; past it, a rebuild also waits until they are more than half the
#: heap, so its cost is at most that of the cancellations that caused it
CANCELLED_TIMEOUTS_FLOOR = 64

_CANCELLED = object()


class Timeout(Event):
    """An event that succeeds after a fixed delay (``Simulation.timeout``),
    unless it is cancelled first.

    A dedicated subclass so the scheduler can hold the timeout itself
    instead of a fresh closure per timeout — timeouts are the single most
    common scheduled callback — and so the timeout can fire *in place*:
    its heap entry sets the state and runs the listeners itself instead
    of hopping through the now lane like :meth:`Event._trigger`.
    Listeners therefore run at the timeout's own ``(time, seq)`` position,
    which differs from a now-lane hop only relative to other entries
    queued at exactly the same instant between the timeout's creation and
    its firing.
    """

    __slots__ = ("_timeout_value",)

    def __init__(self, sim: "Simulation", value: Any) -> None:
        # Event.__init__, spelled out: one call fewer per timeout.
        self._sim = sim
        self._name = "timeout"
        self._value = _PENDING
        self._ok = None
        self._callbacks = []
        self._defused = False
        self._timeout_value = value

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` retired the timeout before it fired."""
        return self._timeout_value is _CANCELLED

    def cancel(self) -> None:
        """Retire the timeout: it never triggers and its listeners are
        dropped at once.  Idempotent, and a no-op once it has fired.

        The scheduler entry is not removed: it keeps its ``(when, seq)``
        place and runs as a no-op if the clock reaches it, so every other
        entry runs exactly where it would have.  The heap is rebuilt
        without its cancelled entries once there are enough of them
        (:meth:`Simulation._compact`).
        """
        if self._value is not _PENDING or self._timeout_value is _CANCELLED:
            return
        self._timeout_value = _CANCELLED
        self._callbacks = []
        self._sim._cancelled += 1
        self._sim._compact()

    def __call__(self) -> None:
        """The scheduler entry: fire, or count a cancelled entry out."""
        if self._timeout_value is _CANCELLED:
            self._sim._cancelled -= 1
            return
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} triggered twice")
        self._ok = True
        self._value = self._timeout_value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(self)


class Simulation:
    """A deterministic discrete-event simulation.

    Time is a float in **milliseconds** by convention throughout this
    repository (network latencies and CPU costs are all expressed in ms).

    Scheduling uses two structures sharing one (time, seq) order: a heap
    for future work and a FIFO "now lane" (a deque) for zero-delay work —
    an O(1) append/popleft instead of a heap push/pop.  Both lanes store
    ``(when, seq, fn)`` entries and the run loops always execute the
    globally smallest (when, seq), so observable ordering is identical to
    a single heap.

    The unit of scheduling is the *wake-up*, not the trigger.  An event
    that triggers with listeners takes one now-lane entry that runs them
    all; one that triggers with nobody listening takes none, and a
    listener that arrives later takes its own; a timeout takes its one
    heap entry and runs its listeners from it (:class:`Timeout`), or
    nothing if it was cancelled first — the entry is still taken, and is
    either reached and skipped or dropped by a rebuild of the heap; a
    process start, an interrupt and a network delivery take one each.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        #: zero-delay entries; appended in seq order at non-decreasing
        #: times, so the deque is itself sorted by (when, seq)
        self._now_lane: deque[tuple[float, int, Callable[[], None]]] = deque()
        self._seq = 0
        #: cancelled timeouts whose entries have not run yet
        self._cancelled = 0
        self._streams = RandomStreams(seed)
        self._running = False
        #: None = built-in FIFO fast loops; a SchedulerPolicy routes every
        #: run through the (slower) policy-driven step core
        self._policy: Optional[SchedulerPolicy] = None

    # -- scheduling policy -------------------------------------------------

    @property
    def policy(self) -> Optional[SchedulerPolicy]:
        """The installed :class:`SchedulerPolicy` (None = built-in FIFO)."""
        return self._policy

    def set_policy(self, policy: Optional[SchedulerPolicy]) -> None:
        """Install ``policy`` (or None to restore the built-in FIFO loops).

        The built-in loops and ``FifoPolicy`` produce byte-identical
        execution orders; a non-FIFO policy may reorder same-instant
        entries, so install it before any work is scheduled if the run
        must be reproducible from the policy's own decisions alone.
        """
        if self._running:
            raise SimulationError("cannot change the scheduler policy mid-run")
        self._policy = policy

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total scheduler entries so far (pinned by the cost goldens).

        An entry is a wake-up — every one was scheduled to run at least
        one listener, process step or delivery; a trigger nobody waits for
        is not counted (see the class docstring).  A timeout counts when
        it is created, so cancelling it later changes nothing here: after
        a run drains the queue this is the number of entries executed
        *plus* the cancelled ones a heap rebuild dropped unreached.
        Reading it costs nothing on the hot path.
        """
        return self._seq

    @property
    def pending(self) -> int:
        """Entries the scheduler holds right now, both lanes, cancelled
        timeouts not yet reached or rebuilt away included."""
        return len(self._queue) + len(self._now_lane)

    def rng(self, name: str) -> random.Random:
        """The named deterministic PRNG stream for a component."""
        return self._streams.stream(name)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, fn))

    def _schedule_now(self, fn: Callable[[], None]) -> None:
        self._seq += 1
        self._now_lane.append((self._now, self._seq, fn))

    # -- event factories -----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` ms from now with ``value``,
        unless :meth:`Timeout.cancel` retires it first."""
        # _schedule, spelled out: timeouts are the hottest thing scheduled.
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Timeout(self, value)
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        return event

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled timeouts once they pass
        :data:`CANCELLED_TIMEOUTS_FLOOR` and are more than half of it —
        so a rebuild costs no more than the cancellations that caused it,
        and the heap holds at most floor + 2 × its live entries.

        Checked when a timeout is cancelled and when a run returns (live
        entries leaving can tip the balance too).  In place — the drain
        loops hold the list — and entries keep their ``(when, seq)`` keys,
        so what remains runs in the order it would have.  A cancelled
        entry a policy drain holds outside the heap as a candidate stays
        counted until it is pushed back and reached.
        """
        queue = self._queue
        cancelled = self._cancelled
        if cancelled <= CANCELLED_TIMEOUTS_FLOOR or cancelled * 2 <= len(queue):
            return
        before = len(queue)
        queue[:] = [
            entry
            for entry in queue
            if type(entry[2]) is not Timeout or entry[2]._timeout_value is not _CANCELLED
        ]
        heapq.heapify(queue)
        self._cancelled -= before - len(queue)

    def wait(self, event: Event, deadline_ms: float):
        """Simulation process step (``yield from``): park until ``event``
        triggers or ``deadline_ms`` pass, whichever comes first.

        The one spelling of "this event or that deadline".  The deadline
        timer is retired as soon as the wait is over — the event won, or
        the waiting process was interrupted or dropped — so a deadline
        far beyond the usual reply time does not sit in the heap, holding
        the waiter, until it passes.  Callers tell the two outcomes apart
        by ``event.triggered``.
        """
        deadline = self.timeout(deadline_ms)
        try:
            yield AnyOf(self, (event, deadline))
        finally:
            deadline.cancel()

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process from ``generator`` at the current instant."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds once every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds once the first event in ``events`` has."""
        return AnyOf(self, events)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run scheduled work; return the final simulated time.

        With ``until`` set, the clock advances to exactly ``until`` and any
        work scheduled later stays queued.  Without it, runs until the event
        queue drains.
        """
        if self._running:
            raise SimulationError("simulation is already running (re-entrant run())")
        self._running = True
        try:
            if self._policy is not None:
                self._drain_policy(
                    self._policy, None, float("inf") if until is None else until
                )
            elif until is None:
                self._drain_fast(None)
            else:
                self._drain_bounded(until, None)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._compact()
        return self._now

    def run_until_triggered(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` triggers; return its value (raising failures).

        ``limit`` bounds simulated time to guard against livelock; exceeding
        it raises :class:`SimulationError`.  The limit check peeks before
        popping: the over-limit entry stays queued and the clock does not
        advance, so a caller may catch the error and keep running without
        losing an event.
        """
        if self._running:
            raise SimulationError("simulation is already running (re-entrant run())")
        self._running = True
        try:
            if self._policy is not None:
                self._drain_policy(self._policy, event, limit)
            elif limit == float("inf"):
                self._drain_fast(event)
            else:
                self._drain_bounded(limit, event)
        finally:
            self._running = False
            self._compact()
        if event.ok:
            return event.value
        event._defused = True
        raise event.value

    # -- step cores --------------------------------------------------------
    #
    # One shared drain per loop shape, parameterised by the stop event:
    # ``stop_event is None`` is the ``run()`` family (stop when drained /
    # past the bound), a stop event is the ``run_until_triggered`` family
    # (deadlock on drained, raise on past the bound).

    def _drain_fast(self, stop_event: Optional[Event]) -> None:
        """Unbounded pop-and-execute drain, no peek step.

        (when, seq) tuple order; seqs are unique so the compare never
        reaches the callables.  The heap head is re-read every iteration
        because a callback may push an earlier entry; zero-delay runs
        drain as O(1) poplefts.
        """
        lane = self._now_lane
        queue = self._queue
        heappop = heapq.heappop
        popleft = lane.popleft
        while stop_event is None or stop_event._value is _PENDING:
            if lane:
                if queue and queue[0] < lane[0]:
                    entry = heappop(queue)
                else:
                    entry = popleft()
            elif queue:
                entry = heappop(queue)
            elif stop_event is None:
                return
            else:
                raise SimulationError(
                    "deadlock: event queue drained before target event triggered"
                )
            self._now = entry[0]
            entry[2]()

    def _drain_bounded(self, bound: float, stop_event: Optional[Event]) -> None:
        """Bounded drain: peek before popping so the first entry past
        ``bound`` stays queued and the clock does not advance to it —
        ``run(until=...)`` returns, ``run_until_triggered`` raises, and
        either way a caller can keep running without losing an event.

        Lane entries sit at the current instant, and a heap entry that
        precedes one is due at that instant too, so the clock advances
        only when the heap is popped with the lane empty: that pop is the
        one place the bound is checked.
        """
        lane = self._now_lane
        queue = self._queue
        heappop = heapq.heappop
        popleft = lane.popleft
        if bound < self._now:
            # The bound is already behind the clock: route what the lane
            # holds through the heap's check, under the same (when, seq).
            while lane:
                heapq.heappush(queue, popleft())
        while stop_event is None or stop_event._value is _PENDING:
            if lane:
                if queue and queue[0] < lane[0]:
                    entry = heappop(queue)
                else:
                    entry = popleft()
            elif queue:
                entry = queue[0]
                if entry[0] > bound:
                    if stop_event is None:
                        return
                    raise SimulationError(f"simulated time limit {bound} ms exceeded")
                heappop(queue)
            elif stop_event is None:
                return
            else:
                raise SimulationError(
                    "deadlock: event queue drained before target event triggered"
                )
            self._now = entry[0]
            entry[2]()

    def _drain_policy(
        self, policy: SchedulerPolicy, stop_event: Optional[Event], bound: float
    ) -> None:
        """Policy-driven drain: collect every entry enabled at the earliest
        pending instant (both lanes, sorted by seq), let the policy pick
        one, push the rest back into the heap, execute, repeat.

        Keeps the peek-before-pop bound contract of the fast loops: an
        over-bound instant is never collected.  Entries pushed back keep
        their (when, seq) keys, so a FIFO policy reproduces the fast
        loops' order exactly.
        """
        lane = self._now_lane
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        popleft = lane.popleft
        while stop_event is None or not stop_event.triggered:
            if lane and not (queue and queue[0] < lane[0]):
                when = lane[0][0]
            elif queue:
                when = queue[0][0]
            elif stop_event is None:
                return
            else:
                raise SimulationError(
                    "deadlock: event queue drained before target event triggered"
                )
            if when > bound:
                if stop_event is None:
                    return
                raise SimulationError(f"simulated time limit {bound} ms exceeded")
            candidates = []
            while lane and lane[0][0] == when:
                candidates.append(popleft())
            while queue and queue[0][0] == when:
                candidates.append(heappop(queue))
            if len(candidates) > 1:
                candidates.sort(key=_entry_seq)
            self._now = when
            choice = policy.choose(when, candidates)
            if choice is RECOLLECT:
                for entry in candidates:
                    heappush(queue, entry)
                continue
            chosen = candidates[choice]
            for index, entry in enumerate(candidates):
                if index != choice:
                    heappush(queue, entry)
            chosen[2]()
