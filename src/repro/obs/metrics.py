"""Counters, gauges, and histograms for simulation observability.

A :class:`MetricsRegistry` is a small, dependency-free metrics surface
in the style of the exporters production power-telemetry pipelines hang
off every server. The cluster simulator populates one per instrumented
run and snapshots it into ``SimulationResult.observability``; the sweep
engine keeps a long-lived one that aggregates across batches. Snapshots
are plain JSON-serializable dicts, so they survive the run-cache codec
and can be merged across runs with :func:`aggregate_snapshots`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds for utilization-like signals.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.25, 0.5, 0.625, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05,
)

#: Bucket upper bounds (seconds) for request-latency histograms. Spans
#: the BLOOM-176B latency range of Table 6/7 — sub-second Code requests
#: up to multi-minute General completions under caps and brakes.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 120.0, 180.0, 300.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only count up")
        self.value += amount


class Gauge:
    """A point-in-time scalar metric (last write wins).

    A gauge that was never written holds ``value = None`` — an explicit
    unset state, distinct from "set to 0.0" — and snapshots carry that
    ``None`` through. This also makes :meth:`max` correct for
    all-negative signals: the first observation seeds the maximum
    instead of losing against an implicit 0.0.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    @property
    def is_set(self) -> bool:
        """Whether the gauge has ever been written."""
        return self.value is not None

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the running maximum of the observed values."""
        value = float(value)
        if self.value is None or value > self.value:
            self.value = value


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    Attributes:
        bounds: Upper bucket bounds; an implicit ``+inf`` bucket catches
            everything above the last bound.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bound")
        if list(bounds) != sorted(bounds):
            raise ConfigurationError("histogram bounds must be sorted")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        # First bound >= value (bisect keeps this O(log n) in C — the
        # hot instrumentation paths observe tens of thousands of times
        # per run); everything above the last bound lands in the
        # implicit +inf bucket at index len(bounds).
        index = bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe a batch of values in one vectorized pass.

        Bucket counts, count, and min/max are exactly what ``len(values)``
        :meth:`observe` calls would produce; the sum is accumulated with
        numpy's pairwise summation, so it can differ from the sequential
        sum in the last ulp. The instrumented simulator batches its
        per-request latencies and per-tick utilizations through here
        at finalize instead of paying a per-event call on the hot path.
        """
        if len(values) == 0:
            return
        import numpy as np  # deferred: only batch callers pay the import

        arr = np.asarray(values, dtype=float)
        buckets = np.bincount(
            np.searchsorted(self.bounds, arr, side="left"),
            minlength=len(self.counts),
        )
        counts = self.counts
        for index in np.nonzero(buckets)[0]:
            counts[index] += int(buckets[index])
        self.count += len(values)
        self.total += float(arr.sum())
        low = float(arr.min())
        high = float(arr.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        """Arithmetic mean of observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms.

    Metric accessors create on first use, so instrumentation sites never
    need registration boilerplate. Names are dotted strings
    (``"requests.served"``); a name is bound to one metric type for the
    registry's lifetime.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        """Get (or create) the counter ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, "counter")
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get (or create) the gauge ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, "gauge")
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get (or create) the histogram ``name``.

        Raises:
            ConfigurationError: If the name exists with other bounds.
        """
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unique(name, "histogram")
            metric = self._histograms[name] = Histogram(bounds)
        elif metric.bounds != tuple(float(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds}"
            )
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of every metric."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                }
                for name, metric in sorted(self._histograms.items())
            },
        }


def aggregate_snapshots(
    snapshots: Iterable[Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Merge metric snapshots from many runs into one.

    Counters and histogram buckets add; gauges keep their maximum (the
    convention every gauge in this package follows is "peak observed"),
    with never-written gauges (value ``None``) kept visible but never
    outranking a run that did set them. ``None`` snapshot entries —
    uninstrumented runs — are skipped, so the result aggregates exactly
    the instrumented subset of a sweep.

    Raises:
        ConfigurationError: If two snapshots disagree on a histogram's
            bucket bounds.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Optional[float]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    merged_any = False
    for snapshot in snapshots:
        if snapshot is None:
            continue
        merged_any = True
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            if value is None:
                # Unset in this run: keep the name visible, but let any
                # run that did set the gauge win.
                gauges.setdefault(name, None)
                continue
            previous = gauges.get(name)
            gauges[name] = (
                float(value) if previous is None
                else max(previous, float(value))
            )
        for name, data in snapshot.get("histograms", {}).items():
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = {
                    "bounds": list(data["bounds"]),
                    "counts": list(data["counts"]),
                    "count": int(data["count"]),
                    "sum": float(data["sum"]),
                    "min": data["min"],
                    "max": data["max"],
                }
                continue
            if existing["bounds"] != list(data["bounds"]):
                raise ConfigurationError(
                    f"histogram {name!r}: cannot aggregate across "
                    f"differing bucket bounds"
                )
            existing["counts"] = [
                a + b for a, b in zip(existing["counts"], data["counts"])
            ]
            existing["count"] += int(data["count"])
            existing["sum"] += float(data["sum"])
            mins: List[float] = [
                m for m in (existing["min"], data["min"]) if m is not None
            ]
            maxs: List[float] = [
                m for m in (existing["max"], data["max"]) if m is not None
            ]
            existing["min"] = min(mins) if mins else None
            existing["max"] = max(maxs) if maxs else None
    if not merged_any:
        return {"counters": {}, "gauges": {}, "histograms": {}}
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
