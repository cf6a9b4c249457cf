"""Trace recorders: where instrumentation events go.

A :class:`TraceRecorder` receives structured events — plain dicts with a
``kind`` key and, for simulator events, a simulation-time ``t`` — from
the cluster simulator's hook points and from the sweep engine. The
contract that makes the layer safe to leave compiled in everywhere:

* recorders only *observe*; they never touch simulator state, draw from
  its RNG streams, or reorder its float arithmetic, so an instrumented
  run is bit-identical to an uninstrumented one;
* the :class:`NullRecorder` singleton reports ``enabled = False`` and
  every hook point is guarded by that flag, so a run without recording
  never even builds an event payload.

Concrete sinks: :class:`MemoryRecorder` (in-process analysis) and
:class:`JsonlRecorder` (one JSON object per line — the interchange
format :mod:`repro.obs.analyze` and ``examples/trace_inspect.py``
consume). Both take an optional ``kinds`` filter; the JSONL sink also
takes a per-kind ``sample`` that bounds recording overhead with a
deterministic hash selection and an exact drop census.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional

from repro.errors import ConfigurationError

#: Event payloads are plain dicts: ``{"kind": ..., "t": ..., **fields}``.
TraceEvent = Dict[str, Any]


class TraceRecorder:
    """Base class for trace sinks.

    Attributes:
        enabled: Hook points skip payload construction entirely when this
            is ``False`` (the :class:`NullRecorder` fast path).
    """

    enabled: bool = True
    #: Optional kind filter of a sink; ``None`` keeps every kind.
    kinds: Optional[FrozenSet[str]] = None

    def emit(self, event: TraceEvent) -> None:
        """Record one event. Must not mutate ``event`` observably."""
        raise NotImplementedError

    def wants(self, kind: str) -> bool:
        """Whether events of ``kind`` can affect this recorder at all.

        Hook points may skip payload construction entirely for kinds
        the recorder (and everything down its chain) reports ``False``
        for — the overhead-bounding fast path for high-rate kinds. A
        ``False`` answer promises that emitting such an event would
        change neither the recorded artifact nor the observability
        snapshot. The answer must be stable for the recorder's
        lifetime: hook points precompute it when the recorder is
        attached. The default answers from the ``kinds`` filter; a
        sampled kind stays wanted, because its drop census is exact.
        """
        return self.enabled and (self.kinds is None or kind in self.kinds)

    def close(self) -> None:
        """Flush and release any underlying resources (idempotent)."""

    def finalize(self, t_end: float) -> None:
        """End-of-run hook: the stream is complete up to ``t_end``.

        Called by the simulator (only while recording) before it
        snapshots observability. Streaming consumers use it to settle
        window state; plain sinks ignore it. Distinct from
        :meth:`close`: a finalized recorder can still be read.
        """

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        """Extra JSON-serializable state for the run's observability.

        Live consumers (alert engines, stream monitors) return a dict
        that the simulator merges into
        ``SimulationResult.observability`` next to the metrics
        snapshot; plain sinks return ``None``.
        """
        return None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Runs on exceptions too: a trace recorded up to a mid-run
        # fault is flushed and closed, so the partial artifact stays
        # valid JSONL (regression-tested in tests/test_obs.py).
        self.close()


class NullRecorder(TraceRecorder):
    """The no-op recorder: ``enabled = False``, events are discarded.

    Hook points guard on ``enabled``, so a simulation handed this
    recorder performs no event construction at all and stays
    bit-identical to one that was never instrumented.
    """

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - guarded
        pass


#: Shared no-op instance used as the default recorder everywhere.
NULL_RECORDER = NullRecorder()


def normalize_kinds(
    kinds: Optional[Iterable[str]],
) -> Optional[FrozenSet[str]]:
    """Validate a ``kinds`` filter: ``None`` or a non-empty set of names.

    Raises:
        ConfigurationError: If ``kinds`` is empty or a bare string (which
            would otherwise filter on its characters).
    """
    if kinds is None:
        return None
    if isinstance(kinds, str):
        raise ConfigurationError(
            f"kinds must be a collection of kind names, not the string "
            f"{kinds!r}"
        )
    normalized = frozenset(kinds)
    if not normalized:
        raise ConfigurationError("kinds filter cannot be empty")
    return normalized


def normalize_sample(
    sample: Optional[Mapping[str, float]],
) -> Optional[Dict[str, float]]:
    """Validate per-kind keep rates: ``None`` or rates within ``[0, 1]``.

    Raises:
        ConfigurationError: If a rate lies outside ``[0, 1]``.
    """
    if sample is None:
        return None
    rates = {str(kind): float(rate) for kind, rate in sample.items()}
    for kind, rate in rates.items():
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"sampling rate for {kind!r} must be within [0, 1], "
                f"got {rate}"
            )
    return rates


_sha256 = hashlib.sha256
_from_bytes = int.from_bytes


def hash_fraction(event: TraceEvent) -> float:
    """A deterministic ``[0, 1)`` fraction of an event's identity.

    sha256 over the event's compact identity — its kind plus the
    fields that make instances of a kind distinct (``t``,
    ``request_id``, ``server``). No RNG state, no emission-order or
    key-order dependence, so the keep/drop decision for an event is a
    pure function of its payload and a sampled trace is an exact
    subsequence of the full trace. The identity is deliberately small:
    sampling is applied to the highest-rate kinds, and hashing a short
    string instead of the full serialized payload keeps the per-event
    cost within the recording overhead budget.
    """
    ident = "%s|%r|%r|%r" % (
        event.get("kind"), event.get("t"),
        event.get("request_id"), event.get("server"),
    )
    digest = _sha256(ident.encode("utf-8")).digest()
    return _from_bytes(digest[:8], "big") / 2.0 ** 64


class MemoryRecorder(TraceRecorder):
    """Keeps events in a list for in-process analysis.

    Attributes:
        events: Every recorded event, in emission order.
        kinds: Optional filter; events of other kinds are discarded.
            Note that :func:`repro.obs.analyze.cross_check` needs the
            full event stream — filter only for targeted inspection.
        max_events: Optional growth bound. Once the buffer holds this
            many events, further events are dropped (oldest-kept) and
            counted exactly in ``dropped_events`` — a long enabled run
            can no longer grow memory without limit.
        dropped_events: Exact count of events dropped by the bound.
    """

    def __init__(
        self,
        kinds: Optional[Iterable[str]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ConfigurationError(
                f"max_events must be positive, got {max_events}"
            )
        self.events: List[TraceEvent] = []
        self.kinds = normalize_kinds(kinds)
        self.max_events = max_events
        self.dropped_events = 0

    def emit(self, event: TraceEvent) -> None:
        if self.kinds is not None and event.get("kind") not in self.kinds:
            return
        if self.max_events is not None \
                and len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        if self.max_events is None:
            return None
        return {
            "trace_buffer": {
                "max_events": self.max_events,
                "recorded_events": len(self.events),
                "dropped_events": self.dropped_events,
            }
        }

    def __len__(self) -> int:
        return len(self.events)


class JsonlRecorder(TraceRecorder):
    """Streams events to a JSON-Lines file (one object per line).

    Floats are serialized with ``repr``-exact round-tripping (the
    :mod:`json` default), so a trace read back by
    :func:`read_jsonl` carries the exact simulated values.

    Each event passes the kind filter first, then the sample: an event
    of a kept kind whose rate is below 1.0 is written iff
    :func:`hash_fraction` of it falls below the rate. The written trace
    is therefore an exact subsequence of the full trace, and the drop
    census depends only on the kept-kind stream, which every execution
    path emits identically.

    Attributes:
        path: Destination file (truncated on open).
        kinds: Optional kind filter (see :class:`MemoryRecorder`).
        sample: Optional per-kind keep fraction; kinds not listed are
            kept in full. When set, the observability snapshot carries
            a ``trace_sampling`` census.
        events_written: Events written to the file.
        dropped_by_kind: Exact count of sampled-out events per kind.
    """

    def __init__(
        self,
        path: str,
        kinds: Optional[Iterable[str]] = None,
        sample: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.path = str(path)
        self.kinds = normalize_kinds(kinds)
        self.sample = normalize_sample(sample)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.events_written = 0
        self.dropped_by_kind: Dict[str, int] = {}

    def emit(self, event: TraceEvent) -> None:
        kind = event.get("kind")
        if self.kinds is not None and kind not in self.kinds:
            return
        if self.sample is not None:
            rate = self.sample.get(kind, 1.0)
            # rate 0.0 drops everything — no need to hash first.
            if rate < 1.0 and (rate <= 0.0 or hash_fraction(event) >= rate):
                self.dropped_by_kind[kind] = \
                    self.dropped_by_kind.get(kind, 0) + 1
                return
        if self._handle is None:
            raise ConfigurationError(
                f"JsonlRecorder({self.path!r}) is closed"
            )
        # One write call per event: serialization happens (and can fail)
        # before anything touches the file, so a fault mid-run never
        # leaves a torn line behind.
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        if self.sample is None:
            return None
        return {
            "trace_sampling": {
                "kept": self.events_written,
                "dropped": sum(self.dropped_by_kind.values()),
                "dropped_by_kind": dict(sorted(self.dropped_by_kind.items())),
            }
        }


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a trace written by :class:`JsonlRecorder`.

    Raises:
        ConfigurationError: If a line is not a JSON object.
    """
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: invalid trace line: {exc}"
                ) from None
            if not isinstance(event, dict):
                raise ConfigurationError(
                    f"{path}:{lineno}: trace events must be JSON objects"
                )
            events.append(event)
    return events
