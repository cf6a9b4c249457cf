"""Streaming (online) aggregation over the live trace-event stream.

PR 3's observability is post-hoc: record a trace, then reconstruct
timelines offline. Operating an oversubscribed row the way the paper
(and the oversubscription literature it builds on) describes requires
the opposite — *online* windowed aggregation updated per event, with no
second pass:

* :class:`Ewma` — continuous-time exponentially weighted moving average
  with a half-life in simulation seconds (irregular sampling is handled
  by decaying per elapsed time, not per sample);
* :class:`RollingRate` — event arrivals per second over a sliding
  window;
* :class:`WindowMax` — sliding-window maximum in O(1) amortized time
  (monotonic deque);
* :class:`WindowQuantile` — sliding-window quantile over a sorted
  window (bisect insertion / removal).

:class:`StreamMonitor` is a :class:`~repro.obs.recorder.TraceRecorder`
that feeds these aggregators from named probes (event kind + field), so
it can sit directly on the simulator's hook points; :class:`TeeRecorder`
fans one event stream out to several recorders, composing monitors and
alert engines with the plain JSONL and memory sinks.

All consumers observe only: attaching them never perturbs the
simulation (the bit-identical guarantee of :mod:`repro.obs` extends to
every class here, asserted in ``tests/test_obs_stream.py``). Every
window convention is half-open ``(now - window_s, now]``, and every
streaming value equals the brute-force recomputation over the recorded
trace (property-tested with hypothesis).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.recorder import TraceEvent, TraceRecorder

__all__ = [
    "Ewma",
    "RollingRate",
    "StreamMonitor",
    "TeeRecorder",
    "WindowMax",
    "WindowQuantile",
]


class Ewma:
    """Continuous-time EWMA: older samples decay by elapsed time.

    On a sample ``x`` at time ``t``, the previous average is decayed by
    ``0.5 ** (dt / halflife_s)`` and the new sample supplies the
    remaining weight. A sample with ``dt == 0`` therefore carries zero
    weight (the average is already "current" at that instant) — a
    deliberate, deterministic convention for same-timestamp events.

    Attributes:
        halflife_s: Time for a sample's weight to halve.
    """

    __slots__ = ("halflife_s", "_value", "_last_t")

    def __init__(self, halflife_s: float) -> None:
        if halflife_s <= 0:
            raise ConfigurationError("halflife_s must be positive")
        self.halflife_s = float(halflife_s)
        self._value: Optional[float] = None
        self._last_t: Optional[float] = None

    def observe(self, t: float, value: float) -> None:
        value = float(value)
        if self._value is None:
            self._value = value
        else:
            decay = 0.5 ** ((t - self._last_t) / self.halflife_s)
            self._value = decay * self._value + (1.0 - decay) * value
        self._last_t = t

    def current(self, now: Optional[float] = None) -> Optional[float]:
        """The smoothed value (``None`` before the first sample).

        ``now`` is accepted for interface uniformity with the window
        aggregators; an EWMA does not evict, so it is unused.
        """
        return self._value


class RollingRate:
    """Event arrivals per second over a sliding window.

    Attributes:
        window_s: Window width in seconds.
    """

    __slots__ = ("window_s", "_times")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.window_s = float(window_s)
        self._times: Deque[float] = deque()

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        times = self._times
        while times and times[0] <= cutoff:
            times.popleft()

    def observe(self, t: float, value: float = 1.0) -> None:
        """Count one arrival at ``t`` (``value`` ignored: rates count)."""
        self._times.append(t)
        self._evict(t)

    def count(self, now: float) -> int:
        """Arrivals inside ``(now - window_s, now]``."""
        self._evict(now)
        return len(self._times)

    def current(self, now: float) -> float:
        """Arrivals per second over the window ending at ``now``."""
        return self.count(now) / self.window_s


class WindowMax:
    """Sliding-window maximum via a monotonically decreasing deque."""

    __slots__ = ("window_s", "_window")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.window_s = float(window_s)
        self._window: Deque[Tuple[float, float]] = deque()

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        window = self._window
        while window and window[0][0] <= cutoff:
            window.popleft()

    def observe(self, t: float, value: float) -> None:
        value = float(value)
        window = self._window
        # Values dominated by the newcomer can never be the max again.
        while window and window[-1][1] <= value:
            window.pop()
        window.append((t, value))
        self._evict(t)

    def current(self, now: float) -> Optional[float]:
        """Maximum over the window (``None`` when the window is empty)."""
        self._evict(now)
        if not self._window:
            return None
        return self._window[0][1]


class WindowQuantile:
    """Sliding-window quantile (numpy-style linear interpolation).

    Keeps the window twice: an arrival-ordered deque for eviction and a
    sorted list for O(log n) rank queries.

    Attributes:
        window_s: Window width in seconds.
        q: Quantile in [0, 1] (0.5 = median).
    """

    __slots__ = ("window_s", "q", "_window", "_sorted")

    def __init__(self, window_s: float, q: float) -> None:
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("q must be within [0, 1]")
        self.window_s = float(window_s)
        self.q = float(q)
        self._window: Deque[Tuple[float, float]] = deque()
        self._sorted: List[float] = []

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_s
        window = self._window
        while window and window[0][0] <= cutoff:
            _, stale = window.popleft()
            # Removes one occurrence; duplicates are fine.
            del self._sorted[bisect_left(self._sorted, stale)]

    def observe(self, t: float, value: float) -> None:
        value = float(value)
        self._window.append((t, value))
        insort(self._sorted, value)
        self._evict(t)

    def current(self, now: float) -> Optional[float]:
        """The windowed quantile (``None`` when the window is empty)."""
        self._evict(now)
        values = self._sorted
        if not values:
            return None
        rank = self.q * (len(values) - 1)
        lower = int(rank)
        frac = rank - lower
        if frac == 0.0 or lower + 1 >= len(values):
            return values[lower]
        return values[lower] + frac * (values[lower + 1] - values[lower])


@dataclass
class _Probe:
    """One named signal: events of ``kind`` feed ``aggregate``."""

    name: str
    kind: str
    field: Optional[str]
    aggregate: Any


class StreamMonitor(TraceRecorder):
    """A recorder that maintains online aggregates instead of a log.

    Probes bind an event kind (and optionally a payload field) to an
    aggregator; :meth:`emit` routes matching events as they happen, so
    the monitor's values are live at any point of the run — no post-hoc
    pass over a stored trace. Events without a simulation time ``t``
    (possible in foreign JSONL; the simulator stamps every event) are
    ignored.

    Example::

        monitor = StreamMonitor()
        monitor.ewma("power", kind="control",
                     field="observed_power_w", halflife_s=60.0)
        monitor.rate("brakes", kind="brake_request", window_s=600.0)
        ClusterSimulator(config, policy, recorder=monitor).run(...)
        monitor.value("power")   # live smoothed row power
    """

    def __init__(self) -> None:
        self._probes: Dict[str, _Probe] = {}
        self._by_kind: Dict[str, List[_Probe]] = {}
        self._last_t: Optional[float] = None

    def _register(self, probe: _Probe) -> Any:
        if probe.name in self._probes:
            raise ConfigurationError(
                f"probe {probe.name!r} already registered"
            )
        self._probes[probe.name] = probe
        self._by_kind.setdefault(probe.kind, []).append(probe)
        return probe.aggregate

    def ewma(
        self, name: str, *, kind: str, field: str, halflife_s: float
    ) -> Ewma:
        """Register an EWMA over ``field`` of ``kind`` events."""
        return self._register(
            _Probe(name, kind, field, Ewma(halflife_s))
        )

    def rate(self, name: str, *, kind: str, window_s: float) -> RollingRate:
        """Register an event-rate probe counting ``kind`` events."""
        return self._register(
            _Probe(name, kind, None, RollingRate(window_s))
        )

    def window_max(
        self, name: str, *, kind: str, field: str, window_s: float
    ) -> WindowMax:
        """Register a sliding-window max over ``field`` of ``kind``."""
        return self._register(
            _Probe(name, kind, field, WindowMax(window_s))
        )

    def quantile(
        self, name: str, *, kind: str, field: str, window_s: float, q: float
    ) -> WindowQuantile:
        """Register a sliding-window quantile over ``field`` of ``kind``."""
        return self._register(
            _Probe(name, kind, field, WindowQuantile(window_s, q))
        )

    def emit(self, event: TraceEvent) -> None:
        t = event.get("t")
        if t is None:
            return
        t = float(t)
        self._last_t = t
        probes = self._by_kind.get(event.get("kind"))
        if not probes:
            return
        for probe in probes:
            if probe.field is None:
                probe.aggregate.observe(t, 1.0)
            else:
                value = event.get(probe.field)
                if value is not None:
                    probe.aggregate.observe(t, float(value))

    def finalize(self, t_end: float) -> None:
        self._last_t = t_end

    def value(self, name: str, now: Optional[float] = None) -> Optional[Any]:
        """Current value of probe ``name`` (``None`` with no data yet).

        ``now`` defaults to the latest event time seen, so window
        aggregates are evaluated at the stream's frontier.

        Raises:
            ConfigurationError: For an unknown probe name.
        """
        probe = self._probes.get(name)
        if probe is None:
            raise ConfigurationError(f"no probe named {name!r}")
        when = now if now is not None else self._last_t
        if when is None:
            return None
        return probe.aggregate.current(when)

    def values(self, now: Optional[float] = None) -> Dict[str, Any]:
        """All probe values by name (see :meth:`value`)."""
        return {
            name: self.value(name, now) for name in sorted(self._probes)
        }

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        """Final probe values, under a ``"stream"`` key."""
        if not self._probes:
            return None
        return {"stream": self.values()}


class TeeRecorder(TraceRecorder):
    """Fans one event stream out to several recorders.

    This is how live consumers compose with the storage sinks: tee a
    :class:`~repro.obs.recorder.JsonlRecorder` (the durable artifact)
    with a :class:`StreamMonitor` and an alert engine, and hand the tee
    to the simulator. Children whose ``enabled`` is ``False`` are
    skipped entirely; a tee of only disabled children is itself
    disabled (the simulator's hook guard short-circuits as usual), and
    the tee wants a kind iff some active child does.
    """

    def __init__(self, children: Sequence[TraceRecorder]) -> None:
        self.children: Tuple[TraceRecorder, ...] = tuple(children)
        self._active = tuple(c for c in self.children if c.enabled)
        self.enabled = bool(self._active)

    def emit(self, event: TraceEvent) -> None:
        for child in self._active:
            child.emit(event)

    def wants(self, kind: str) -> bool:
        return any(child.wants(kind) for child in self._active)

    def finalize(self, t_end: float) -> None:
        for child in self._active:
            child.finalize(t_end)

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        """Shallow merge of the children's snapshots, in child order.

        Top-level dict values merge key-wise (later children win on
        key conflicts); non-dict values from later children replace
        earlier ones.
        """
        merged: Dict[str, Any] = {}
        for child in self._active:
            snapshot = child.observability_snapshot()
            if not snapshot:
                continue
            for key, value in snapshot.items():
                if isinstance(value, dict) \
                        and isinstance(merged.get(key), dict):
                    merged[key] = {**merged[key], **value}
                else:
                    merged[key] = value
        return merged or None

    def close(self) -> None:
        for child in self.children:
            child.close()
