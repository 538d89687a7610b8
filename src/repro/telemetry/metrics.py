"""Labelled metrics: counters, gauges and histograms with a registry.

The simulator's observability story (see :mod:`repro.telemetry`) needs a
small, dependency-free metrics vocabulary:

``Counter``
    A monotonically increasing total (cycles simulated, stall cycles
    attributed to a channel, bytes moved by a DRAM bank).

``Gauge``
    A point-in-time value (a kernel's utilization for one run, achieved
    initiation interval vs the declared one).

``Histogram``
    A bucketed distribution (per-channel FIFO occupancy sampled every
    executed cycle), with exact ``sum``/``count`` so means are lossless.

Every metric carries *labels* — free-form key/value pairs such as
``kernel="dot"`` or ``bank=2`` — and a metric therefore holds one series
per distinct label set, mirroring the Prometheus data model without any
of its machinery.  :class:`MetricsRegistry` owns the metrics and renders
everything to one stable JSON-able dict (``schema`` field included) so
telemetry artifacts, benchmark JSON and tests share one format.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
    "METRICS_SCHEMA",
]

#: Schema tag stamped on every exported metrics document.
METRICS_SCHEMA = "repro.metrics/1"

#: Default histogram bucket upper bounds (occupancies, cycle counts...):
#: zero gets its own bucket, then powers of two; +inf is implicit.
DEFAULT_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: A series key: its ``(label, value)`` pairs in label-name order.
#: :class:`~repro.telemetry.observers.RunObserver` spells the order
#: of each family it writes once and builds its keys in it, so no update
#: on the watched path sorts; the keyword API below sorts its labels.
LabelKey = Tuple[Tuple[str, object], ...]


def _key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Metric:
    """Base class: a named family of labelled series."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelKey, Any] = {}

    def labelsets(self) -> List[dict]:
        return [dict(k) for k in self._series]

    def series(self) -> Iterable[Tuple[dict, object]]:
        """Yield ``(labels, value)`` for every recorded series."""
        for k, v in self._series.items():
            yield dict(k), v

    def _export_value(self, value: Any) -> object:
        return value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(k), "value": self._export_value(v)}
                for k, v in sorted(self._series.items(),
                                   key=lambda kv: repr(kv[0]))
            ],
        }


class Counter(Metric):
    """A monotonically increasing labelled total."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: object) -> None:
        self.add(_key(labels), value)

    def add(self, key: LabelKey, value: float) -> None:
        """:meth:`inc` the series of an already ordered ``key``."""
        if value < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {value})")
        self._series[key] = self._series.get(key, 0) + value

    def get(self, **labels: object) -> float:
        return float(self._series.get(_key(labels), 0))

    def total(self) -> float:
        """Sum across all label sets."""
        return float(sum(self._series.values()))


class Gauge(Metric):
    """A labelled point-in-time value (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[_key(labels)] = value

    def put(self, key: LabelKey, value: float) -> None:
        """:meth:`set` the series of an already ordered ``key``."""
        self._series[key] = value

    def get(self, **labels: object) -> Optional[float]:
        return self._series.get(_key(labels))


class _HistSeries:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, nbuckets: int) -> None:
        self.bucket_counts = [0] * (nbuckets + 1)   # +1 for +inf
        self.count = 0
        # int until a float is observed: exports stay integer-typed for
        # integer-only series (occupancy counts, cycle totals).
        self.sum: float = 0


class Histogram(Metric):
    """A labelled bucketed distribution with exact sum/count.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket
    catches the overflow.  ``observe(value, count)`` records ``count``
    identical samples in O(log buckets) — that is what lets a jump's or
    a superstep's window fold thousands of constant-occupancy cycles
    into one call — and :meth:`fold` records a whole tally of them at
    once.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be sorted and unique")
        self.buckets = tuple(buckets)

    def observe(self, value: float, count: int = 1,
                **labels: object) -> None:
        if count >= 1:
            self.fold(_key(labels), ((value, count),))

    def fold(self, key: LabelKey,
             samples: Iterable[Tuple[float, int]]) -> None:
        """Record ``count`` samples of ``value`` for every ``(value,
        count)`` in ``samples`` (each ``count`` >= 1) in the series of an
        already ordered ``key``."""
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _HistSeries(len(self.buckets))
        counts, buckets = s.bucket_counts, self.buckets
        for value, count in samples:
            # The first bound >= value; len(buckets) is the +inf bucket.
            counts[bisect_left(buckets, value)] += count
            s.count += count
            s.sum += value * count

    def mean(self, **labels: object) -> float:
        s = self._series.get(_key(labels))
        if s is None or s.count == 0:
            return 0.0
        return float(s.sum / s.count)

    def count(self, **labels: object) -> int:
        s = self._series.get(_key(labels))
        return 0 if s is None else int(s.count)

    def _export_value(self, s: _HistSeries) -> object:
        bounds = [*map(float, self.buckets), "+inf"]
        return {
            "buckets": {str(b): c
                        for b, c in zip(bounds, s.bucket_counts)},
            "count": s.count,
            "sum": s.sum,
        }


class MetricsRegistry:
    """Owns metrics; get-or-create accessors keep callers declarative."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, cls: Any, name: str, help: str, **kw: object) -> Any:
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = cls(name, help, **kw)
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}")
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dict(self) -> dict:
        return {
            "schema": METRICS_SCHEMA,
            "metrics": [m.to_dict()
                        for _n, m in sorted(self._metrics.items())],
        }
