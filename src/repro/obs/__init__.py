"""The unified observability layer: metrics registry + invocation spans.

See DESIGN.md §"Observability" — one :class:`MetricsRegistry` per
platform (LambdaStore cluster or serverless baseline) holds every
counter/gauge/histogram as a labelled instrument; one :class:`SpanTracer`
reconstructs per-request invocation trees across nodes, correlated by
``request_id``.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
    StatsView,
)
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "StatsView",
]
