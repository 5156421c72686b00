"""Span-based distributed tracing for invocations.

One **trace** per client request (``trace_id`` = the request id, which
every request/reply message also carries); one **span** per phase of the
invocation lifecycle —
lock waits, guest execution, nested object calls (including remote
dispatches to other storage nodes), commits (the §3.1 caller-commit
split), cache lookups, kvstore flushes, and replication rounds.  Each
span records the node it ran on, so a cross-node trace reconstructs the
caller → callee path of e.g. a ``bank.transfer`` whose payee lives in a
different microshard.

Two attachment styles, matching the simulator's two execution regimes:

- **synchronous** — guest execution happens at one simulated instant with
  no yields, so the tracer keeps a *current-span stack*; instrumentation
  deep in the runtime (cache lookup, commit, kvstore flush, nested
  invoke) parents itself on :meth:`SpanTracer.current` automatically.
- **asynchronous** — phases that cross simulation yields (lock waits,
  replication rounds, remote charges) pass their parent span explicitly
  via :meth:`SpanTracer.start` / :meth:`SpanTracer.end`, because other
  processes interleave while they wait.

:meth:`SpanTracer.render` pretty-prints one trace as an indented tree
with durations — the tool for explaining a single slow request.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional
from zlib import crc32


@dataclass(slots=True)
class Span:
    """One timed phase of one invocation."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    node: str
    start_ms: float
    end_ms: Optional[float] = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    def snapshot(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class _NoopAttrs(dict):
    """Attr sink for the no-op span: accepts writes, always stays empty."""

    __slots__ = ()

    def __setitem__(self, key: Any, value: Any) -> None:
        pass

    def update(self, *args: Any, **kwargs: Any) -> None:
        pass

    def setdefault(self, key: Any, default: Any = None) -> Any:
        return default


class NoopSpan:
    """The zero-allocation span stood in on unsampled traces.

    One shared instance (:data:`NOOP_SPAN`) is returned for every span of
    an unsampled trace: it carries Span's full read surface as class
    attributes, swallows attribute and ``attrs`` writes, and reports
    itself already finished so :meth:`SpanTracer.end` is a no-op on it.
    """

    __slots__ = ()

    trace_id = ""
    span_id = 0
    parent_id: Optional[int] = None
    name = ""
    node = ""
    start_ms = 0.0
    end_ms: Optional[float] = 0.0
    status = "ok"
    attrs: dict[str, Any] = _NoopAttrs()
    duration_ms = 0.0
    finished = True

    def __setattr__(self, name: str, value: Any) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {}


#: the shared no-op span instance
NOOP_SPAN = NoopSpan()

#: crc32 threshold meaning "record every trace" (crc32 < 2**32 always)
_FULL_RATE = 1 << 32


class SpanTracer:
    """Records spans (bounded), indexes them by trace, renders trees.

    ``sample_rate`` < 1.0 enables head-based sampling: whether a trace is
    recorded is decided once from a deterministic hash of its trace id
    (stable across runs and processes — no salted ``hash()``, no rng), and
    every span of an unsampled trace is the shared :data:`NOOP_SPAN`.
    :meth:`escalate` force-records a trace after the fact when a request
    turns anomalous (error/retry/shed), so sampling never hides trouble.

    Completed traces are additionally capped at ``max_traces``: when
    exceeded, the oldest finished traces are evicted, always keeping the
    ``keep_slowest`` slowest and every trace containing an error span —
    the bound long chaos soaks need without losing the traces worth
    looking at.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 100_000,
        sample_rate: float = 1.0,
        max_traces: int = 4096,
        keep_slowest: int = 64,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self._max = max_spans
        self._next_id = 1
        self._auto_trace = 0
        self.spans: list[Span] = []
        self.dropped_oldest = 0
        self.dropped_traces = 0
        self.sample_rate = sample_rate
        #: crc32(trace_id) below this records the trace
        self._threshold = (
            _FULL_RATE if sample_rate >= 1.0 else max(int(sample_rate * _FULL_RATE), 0)
        )
        self._sample_all = self._threshold >= _FULL_RATE
        #: trace ids escalated to always-recorded despite the sample rate
        self._forced: set[str] = set()
        self._max_traces = max_traces
        self._keep_slowest = keep_slowest
        self._by_trace: dict[str, list[Span]] = {}
        self._stack: list[Span] = []

    # -- sampling ----------------------------------------------------------

    def sampled(self, trace_id: str) -> bool:
        """Whether spans of this trace are recorded (head decision)."""
        if self._sample_all:
            return True
        return trace_id in self._forced or crc32(trace_id.encode()) < self._threshold

    def escalate(self, trace_id: str, reason: str = "", node: str = "") -> None:
        """Force-record an anomalous trace regardless of the sample rate.

        Called when a request hits an error/retry/shed.  Head sampling
        already dropped the request's earlier spans, so a marker span is
        recorded carrying the escalation reason — the trace is never
        empty, and every span opened for it from now on is real.  At
        sample rate 1.0 (or for already-sampled traces) this is a no-op,
        keeping default-rate output byte-identical.
        """
        if self.sampled(trace_id):
            return
        self._forced.add(trace_id)
        marker = self.start("escalated", trace_id=trace_id, node=node)
        if reason:
            marker.attrs["reason"] = reason
        self.end(marker)

    # -- recording ---------------------------------------------------------

    def start(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent: Optional[Span] = None,
        node: str = "",
        **attrs: Any,
    ) -> Span:
        """Open a span.  ``trace_id``/``parent`` default to the current
        stack top; with neither, a fresh local trace id is minted.
        Returns :data:`NOOP_SPAN` when the trace is not sampled."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        if parent is not None:
            if parent is NOOP_SPAN:
                return NOOP_SPAN
            if trace_id is None:
                trace_id = parent.trace_id
        if trace_id is None:
            self._auto_trace += 1
            trace_id = f"local-{self._auto_trace}"
        if not self._sample_all and not self.sampled(trace_id):
            return NOOP_SPAN
        span = Span(
            trace_id=trace_id,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            node=node or (parent.node if parent is not None else ""),
            start_ms=self._clock(),
            attrs=attrs,
        )
        self._next_id += 1
        if len(self.spans) >= self._max:
            keep = self._max // 2
            self.dropped_oldest += len(self.spans) - keep
            self.spans = self.spans[-keep:]
            self._by_trace = {}
            for kept in self.spans:
                self._by_trace.setdefault(kept.trace_id, []).append(kept)
        self.spans.append(span)
        per_trace = self._by_trace.get(trace_id)
        if per_trace is None:
            self._by_trace[trace_id] = [span]
            if len(self._by_trace) > self._max_traces:
                self._evict_completed()
        else:
            per_trace.append(span)
        return span

    def _evict_completed(self) -> None:
        """Evict oldest completed traces down to 3/4 of ``max_traces``,
        keeping every error trace, every still-open trace, and the
        ``keep_slowest`` traces with the slowest finished roots."""
        target = (self._max_traces * 3) // 4
        durations: list[tuple[float, str]] = []
        unevictable: set[str] = set()
        for tid, spans in self._by_trace.items():
            worst = -1.0
            for span in spans:
                if span.end_ms is None:
                    unevictable.add(tid)
                elif span.status != "ok":
                    unevictable.add(tid)
                if span.parent_id is None and span.end_ms is not None:
                    duration = span.end_ms - span.start_ms
                    if duration > worst:
                        worst = duration
            durations.append((worst, tid))
        durations.sort(reverse=True)
        unevictable.update(tid for _d, tid in durations[: self._keep_slowest])
        evicted: set[str] = set()
        remaining = len(self._by_trace)
        for tid in self._by_trace:  # dict order = oldest trace first
            if remaining <= target:
                break
            if tid in unevictable:
                continue
            evicted.add(tid)
            remaining -= 1
        if not evicted:
            return
        for tid in evicted:
            del self._by_trace[tid]
        self.spans = [s for s in self.spans if s.trace_id not in evicted]
        self._forced.difference_update(evicted)
        self.dropped_traces += len(evicted)

    def end(self, span: Span, status: str = "ok") -> Span:
        """Close a span at the current clock."""
        if span.end_ms is None:
            span.end_ms = self._clock()
            span.status = status
        return span

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent: Optional[Span] = None,
        node: str = "",
        **attrs: Any,
    ):
        """Context manager for *synchronous* phases: opens a span, pushes
        it as the current parent, closes (with error status) on exit."""
        opened = self.start(name, trace_id=trace_id, parent=parent, node=node, **attrs)
        self._stack.append(opened)
        try:
            yield opened
        except BaseException:
            self._stack.pop()
            self.end(opened, status="error")
            raise
        self._stack.pop()
        self.end(opened)

    @contextmanager
    def activate(self, span: Span):
        """Make an externally-managed span the current parent for the
        duration of a synchronous block (it is *not* closed on exit)."""
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def trace(self, trace_id: str) -> list[Span]:
        """Every span of one trace, in start order."""
        return list(self._by_trace.get(trace_id, ()))

    def trace_ids(self) -> list[str]:
        return list(self._by_trace)

    def roots(self, trace_id: str) -> list[Span]:
        spans = self.trace(trace_id)
        present = {span.span_id for span in spans}
        return [s for s in spans if s.parent_id is None or s.parent_id not in present]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.trace(span.trace_id) if s.parent_id == span.span_id]

    def slowest_trace(self) -> Optional[str]:
        """The trace id whose root span took longest (debugging entry point)."""
        worst: tuple[float, Optional[str]] = (-1.0, None)
        for trace_id in self._by_trace:
            for root in self.roots(trace_id):
                if root.finished and root.duration_ms > worst[0]:
                    worst = (root.duration_ms, trace_id)
        return worst[1]

    # -- rendering ---------------------------------------------------------

    def render(self, trace_id: str) -> str:
        """Pretty-print one trace as an indented span tree.

        ::

            trace c0#7
            └─ request @store-0 12.412ms method=transfer
               ├─ lock.wait @store-0 0.000ms
               ├─ execute @store-0 ...
        """
        spans = self.trace(trace_id)
        if not spans:
            return f"trace {trace_id}: no spans"
        lines = [f"trace {trace_id}"]

        def walk(span: Span, prefix: str, is_last: bool) -> None:
            connector = "└─" if is_last else "├─"
            duration = f"{span.duration_ms:.3f}ms" if span.finished else "(open)"
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            status = "" if span.status == "ok" else f" [{span.status}]"
            lines.append(
                f"{prefix}{connector} {span.name} @{span.node or '-'} "
                f"{duration}{status}{(' ' + attrs) if attrs else ''}"
            )
            child_prefix = prefix + ("   " if is_last else "│  ")
            kids = self.children(span)
            for index, child in enumerate(kids):
                walk(child, child_prefix, index == len(kids) - 1)

        top = self.roots(trace_id)
        for index, root in enumerate(top):
            walk(root, "", index == len(top) - 1)
        return "\n".join(lines)

    def snapshot(self, trace_id: Optional[str] = None) -> dict[str, Any]:
        spans = self.trace(trace_id) if trace_id is not None else self.spans
        return {"spans": [span.snapshot() for span in spans]}
