"""The label-aware metrics registry.

The paper's core argument (§4.2) is that co-locating execution with
storage lets one node observe the *entire* invocation lifecycle.  This
module is the substrate that makes that observation reportable: one
registry per platform holds every counter, gauge, and histogram, keyed by
``(name, labels)`` — so ``node_requests{node="store-0"}`` and
``node_requests{node="store-1"}`` are distinct instruments of one family.

Three instrument kinds:

- :class:`Counter` — monotonically-ish increasing value (the existing
  ``*Stats`` dataclasses map their ``int`` fields here);
- :class:`Gauge` — a settable level, optionally *callback-backed* (the
  value is pulled from a function when read, which keeps ultra-hot code
  paths free of registry writes);
- :class:`Histogram` — bucketed distribution with count/sum.

An instrument holds its current value only; readers (the cost goldens,
the benchmark ledger, the bench CLI's ``--metrics-out``) take totals
when they need them.

The existing ``*Stats`` dataclasses migrate onto the registry via
:class:`StatsView`: attribute reads/writes proxy registry instruments, so
``node.stats.requests += 1`` keeps working everywhere while the value
lives in (and is exported from) the registry.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Optional

#: default histogram bucket upper bounds, in ms (exponential-ish; the
#: simulation's latencies span ~0.05 ms cache hits to multi-second faults)
DEFAULT_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _freeze_labels(labels: Optional[dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Shared plumbing: identity and labels."""

    __slots__ = ("name", "labels", "help")

    kind = "instrument"

    def __init__(self, name: str, labels: LabelSet, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    @property
    def value(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": self.label_dict,
            "value": self.value,
        }


class CounterCell:
    """A handle-local pre-aggregation cell of one :class:`Counter`.

    Ultra-hot paths increment the cell (one attribute add on a one-slot
    object) instead of calling into the registry instrument; the parent
    counter folds every cell lazily whenever its value is read.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n: float = 0

    def inc(self, amount: float = 1) -> None:
        self.n += amount


class Counter(Instrument):
    """A numeric total.  ``set()`` exists so :class:`StatsView` attribute
    assignment (``stats.x += 1`` desugars to a read + a set) works."""

    __slots__ = ("_value", "_cells")

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet, help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value: float = 0.0
        self._cells: list[CounterCell] = []

    def cell(self) -> CounterCell:
        """Mint a pre-aggregation cell owned by this counter."""
        cell = CounterCell()
        self._cells.append(cell)
        return cell

    def _fold(self) -> None:
        for cell in self._cells:
            if cell.n:
                self._value += cell.n
                cell.n = 0

    @property
    def value(self) -> float:
        if self._cells:
            self._fold()
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def set(self, value: float) -> None:
        # Setting overrides the total: discard unfolded cell increments so
        # they cannot resurface on the next fold.
        for cell in self._cells:
            cell.n = 0
        self._value = value


class Gauge(Instrument):
    """A settable level; optionally backed by a pull callback."""

    __slots__ = ("_value", "_fn")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name, labels, help)
        self._value: float = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed; cannot set")
        self._value = value


class Histogram(Instrument):
    """Cumulative-bucket histogram (Prometheus semantics: each bucket
    counts observations ``<= upper_bound``; ``+Inf`` is ``count``)."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels, help)
        self.bounds = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1

    @property
    def value(self) -> float:
        """The running mean."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the nearest rank); NaN when empty."""
        if not self.count:
            return float("nan")
        rank = math.ceil(fraction * self.count)
        for index, bound in enumerate(self.bounds):
            # bucket counts are cumulative (Prometheus semantics)
            if self.bucket_counts[index] >= rank:
                return bound
        return float("inf")

    def snapshot(self) -> dict[str, Any]:
        base = super().snapshot()
        base["count"] = self.count
        base["sum"] = self.sum
        base["buckets"] = [
            {"le": bound, "count": count}
            for bound, count in zip(self.bounds, self.bucket_counts)
        ]
        return base


class MetricsRegistry:
    """Get-or-create instrument namespace and snapshot root."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelSet], Instrument] = {}

    # -- get-or-create ----------------------------------------------------

    def _get_or_create(
        self, cls, name: str, labels: Optional[dict[str, str]], help: str, **kwargs
    ):
        key = (name, _freeze_labels(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = cls(name, key[1], help=help, **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(
        self, name: str, labels: Optional[dict[str, str]] = None, help: str = ""
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self,
        name: str,
        labels: Optional[dict[str, str]] = None,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels, help)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        labels: Optional[dict[str, str]] = None,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def get(
        self, name: str, labels: Optional[dict[str, str]] = None
    ) -> Optional[Instrument]:
        return self._instruments.get((name, _freeze_labels(labels)))

    def families(self) -> dict[str, list[Instrument]]:
        """Instruments grouped by metric name, sorted by labels."""
        grouped: dict[str, list[Instrument]] = {}
        for instrument in self._instruments.values():
            grouped.setdefault(instrument.name, []).append(instrument)
        for family in grouped.values():
            family.sort(key=lambda m: m.labels)
        return grouped

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every instrument's current value, sorted by name and labels."""
        return {
            "metrics": [
                instrument.snapshot()
                for _key, instrument in sorted(self._instruments.items())
            ]
        }


class StatsView:
    """Attribute-style view over registry instruments.

    Subclasses declare ``COUNTERS`` (int/float totals) and ``GAUGES``
    (settable levels) as ``{field: default}`` plus a ``PREFIX``; instances
    then behave like the old ad-hoc dataclasses (``stats.requests += 1``,
    ``stats.busy_ms`` reads) while each field is a registry instrument —
    one source of truth for hot-path accounting and exported values.

    Constructed bare (``NodeStats()``) a view owns a private registry, so
    standalone components keep working; platforms pass their shared
    registry plus identity labels (``{"node": "store-0"}``).
    """

    __slots__ = ("_metrics",)

    PREFIX = ""
    COUNTERS: dict[str, float] = {}
    GAUGES: dict[str, float] = {}

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict[str, str]] = None,
    ) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        metrics: dict[str, Instrument] = {}
        for name, default in self.COUNTERS.items():
            metric = registry.counter(f"{self.PREFIX}_{name}", labels)
            if default:
                metric.set(default)
            metrics[name] = metric
        for name, default in self.GAUGES.items():
            metric = registry.gauge(f"{self.PREFIX}_{name}", labels)
            if default:
                metric.set(default)
            metrics[name] = metric
        object.__setattr__(self, "_metrics", metrics)

    def __getattr__(self, name: str) -> float:
        try:
            metric = object.__getattribute__(self, "_metrics")[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no stat {name!r}"
            ) from None
        value = metric.value
        # Counters declared with integral defaults read back as ints so
        # equality assertions (`stats.requests == 1`) stay exact.
        if isinstance(type(self).COUNTERS.get(name), int) or isinstance(
            type(self).GAUGES.get(name), int
        ):
            if value == int(value):
                return int(value)
        return value

    def __setattr__(self, name: str, value: float) -> None:
        try:
            self._metrics[name].set(value)
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no stat {name!r}"
            ) from None

    def handle(self, name: str) -> Instrument:
        """The underlying instrument for ``name``.

        Hot paths preresolve handles once (``self._c_requests =
        stats.handle("requests")``) so each increment is a single
        ``Counter.inc`` instead of two dict lookups through the
        attribute protocol.  Snapshots read the same instrument.
        """
        try:
            return self._metrics[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no stat {name!r}"
            ) from None

    def cell(self, name: str) -> CounterCell:
        """A pre-aggregation cell for counter ``name``.

        The step past :meth:`handle` for the hottest counters: increments
        land in a handle-local cell and fold into the registry instrument
        when it is next read, so per-event cost is one slot add.  Only
        counters have cells; gauges keep their handles.
        """
        metric = self.handle(name)
        if not isinstance(metric, Counter):
            raise TypeError(f"stat {name!r} is a {metric.kind}, not a counter")
        return metric.cell()

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self._metrics}

    def snapshot(self) -> dict[str, float]:
        """Plain-dict copy (kept for the old dataclasses' API)."""
        return self.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StatsView):
            return self.as_dict() == other.as_dict()
        return NotImplemented
