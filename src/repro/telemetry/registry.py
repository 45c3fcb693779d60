"""The in-process metrics registry: counters, gauges and histograms.

The registry is the O&M-counter surface of the library: instrumented call
sites increment named metrics (optionally carrying a small set of string
labels, Prometheus-style) and exporters snapshot the whole registry at the
end of a run.  Everything here is plain python state — no background
threads, no I/O, and, critically, **no randomness**: recording a metric can
never perturb an experiment's RNG streams or float arithmetic, which is what
keeps telemetry bitwise-invariant.

Metric identity is ``(name, sorted label items)``.  A name is registered
with exactly one metric type; asking for the same name as a different type
raises :class:`~repro.exceptions.ConfigurationError` — silently aliasing a
counter and a gauge would corrupt the exported snapshot.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Default histogram bucket upper edges for microsecond latencies (a decade
#: ladder from 100 us to 100 ms; observations above fall into +Inf).
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the running total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """A fixed-bucket histogram with Prometheus ``le`` (≤ edge) semantics.

    ``edges`` are the finite bucket upper bounds, strictly increasing; an
    implicit +Inf bucket catches everything above the last edge.  An
    observation equal to an edge lands in that edge's bucket (``le`` means
    *less than or equal*), matching the Prometheus text-format contract.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "edges", "bucket_counts", "sum", "count")

    def __init__(self, name: str, labels: LabelItems, edges: Sequence[float]) -> None:
        edges = tuple(float(edge) for edge in edges)
        if not edges:
            raise ConfigurationError(f"histogram {name} needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram {name} bucket edges must be strictly increasing, got {edges}"
            )
        self.name = name
        self.labels = labels
        self.edges = edges
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative counts, one per edge plus +Inf."""
        counts, total = [], 0
        for bucket in self.bucket_counts:
            total += bucket
            counts.append(total)
        return counts


class MetricsRegistry:
    """Get-or-create store of named metrics.

    ``counter`` / ``gauge`` / ``histogram`` return the live metric for a
    ``(name, labels)`` pair, creating it on first use — instrumented call
    sites never need to pre-declare anything.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}

    @staticmethod
    def _label_items(labels: Dict[str, str]) -> LabelItems:
        return tuple(sorted((str(key), str(value)) for key, value in labels.items()))

    def _get(self, kind: str, name: str, labels: Dict[str, str], factory):
        registered = self._kinds.get(name)
        if registered is not None and registered != kind:
            raise ConfigurationError(
                f"metric {name!r} is already registered as a {registered}, "
                f"cannot re-register as a {kind}"
            )
        key = (name, self._label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._metrics[key] = metric
            self._kinds[name] = kind
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram ``name`` with ``labels``, on the default latency buckets."""
        return self._get(
            "histogram",
            name,
            labels,
            lambda n, items: Histogram(n, items, DEFAULT_LATENCY_BUCKETS_US),
        )

    def metrics(self) -> Iterator[object]:
        """Every registered metric, ordered by (name, labels) for stable export."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-data view of the registry (used by tests and reports)."""
        view: Dict[str, Dict[str, object]] = {}
        for metric in self.metrics():
            label_text = ",".join(f"{key}={value}" for key, value in metric.labels)
            entry = view.setdefault(metric.name, {"kind": metric.kind, "samples": {}})
            if isinstance(metric, Histogram):
                entry["samples"][label_text] = {
                    "sum": metric.sum,
                    "count": metric.count,
                    "buckets": dict(
                        zip([str(e) for e in metric.edges] + ["+Inf"],
                            metric.cumulative_counts())
                    ),
                }
            else:
                entry["samples"][label_text] = metric.value
        return view
