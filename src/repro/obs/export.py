"""Exporters: OpenMetrics text and Chrome trace-event (Perfetto) JSON.

Production power-management pipelines are operated through exporters:
every server's telemetry daemon renders counters into a text format a
scraper aggregates. This module does the same for the simulator's
:class:`~repro.obs.metrics.MetricsRegistry` snapshots (and the alert
engine's incident counters), producing the OpenMetrics text exposition
format:

* counters become ``<name>_total``, gauges plain samples, histograms
  the ``_bucket{le=...}`` / ``_sum`` / ``_count`` family with
  *cumulative* bucket counts and a ``+Inf`` bucket;
* metric names are sanitized (``requests.served`` →
  ``repro_requests_served``); an optional label set is stamped on every
  sample (used by sweeps to distinguish runs);
* output ends with ``# EOF`` per the OpenMetrics spec, and parses with
  any Prometheus-compatible scraper.

:func:`render_openmetrics` is pure; :func:`write_textfile` is the
node-exporter-textfile-style convenience (pass it
:func:`~repro.obs.metrics.aggregate_snapshots` of a sweep's results for
a sweep-wide export).

:func:`render_chrome_trace` renders a recorded run in the Chrome
trace-event JSON format (the format Perfetto and ``chrome://tracing``
open): one process track per server with request phases as complete
(``"X"``) slices on per-slot lanes, queue waits on a buffer lane, and
cap/brake landings as instant (``"i"``) events on a row-control track —
any simulator trace becomes visually inspectable with
``python examples/trace_inspect.py perfetto trace.jsonl out.json`` or
:func:`write_chrome_trace`.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError

__all__ = [
    "render_chrome_trace",
    "render_openmetrics",
    "sanitize_metric_name",
    "write_chrome_trace",
    "write_textfile",
]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def sanitize_metric_name(name: str, prefix: str = "") -> str:
    """Turn a dotted registry name into a legal metric name.

    Dots and other invalid characters become underscores; a leading
    digit is prefixed with an underscore. With a ``prefix``, the two
    are joined by an underscore (``repro`` + ``requests.served`` →
    ``repro_requests_served``).

    Raises:
        ConfigurationError: If the result is empty.
    """
    cleaned = _INVALID_CHARS.sub("_", name)
    if prefix:
        cleaned = f"{_INVALID_CHARS.sub('_', prefix)}_{cleaned}"
    if cleaned and cleaned[0].isdigit():
        cleaned = f"_{cleaned}"
    if not cleaned or not _NAME_OK.match(cleaned):
        raise ConfigurationError(
            f"cannot derive a metric name from {name!r}"
        )
    return cleaned


def _escape_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_INVALID_CHARS.sub("_", key)}='
        f'"{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def render_openmetrics(
    snapshot: Optional[Dict[str, Any]],
    prefix: str = "repro",
    labels: Optional[Mapping[str, str]] = None,
) -> str:
    """Render an observability snapshot as OpenMetrics text.

    ``snapshot`` is the dict stored at
    ``SimulationResult.observability`` (or any
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`): the
    ``counters`` / ``gauges`` / ``histograms`` sections render as their
    metric families (unset gauges — value ``None`` — are skipped), and
    if the snapshot carries an ``incidents`` section (see
    :mod:`repro.obs.alerts`) it renders as
    ``<prefix>_incidents_total{rule=...,severity=...}`` plus an
    ``<prefix>_incidents_open`` gauge. ``None`` renders as an empty
    (but still terminated) exposition.
    """
    labels = dict(labels or {})
    label_text = _render_labels(labels)
    lines: List[str] = []
    snapshot = snapshot or {}

    for name, value in snapshot.get("counters", {}).items():
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total{label_text} {int(value)}")

    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue  # explicit unset state: nothing to expose
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{label_text} {_format_value(value)}")

    for name, data in snapshot.get("histograms", {}).items():
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(data["bounds"], data["counts"]):
            cumulative += int(count)
            bucket_labels = _render_labels(
                {**labels, "le": _format_value(bound)}
            )
            lines.append(f"{metric}_bucket{bucket_labels} {cumulative}")
        inf_labels = _render_labels({**labels, "le": "+Inf"})
        lines.append(f"{metric}_bucket{inf_labels} {int(data['count'])}")
        lines.append(
            f"{metric}_sum{label_text} {_format_value(data['sum'])}"
        )
        lines.append(f"{metric}_count{label_text} {int(data['count'])}")

    incidents = snapshot.get("incidents")
    if incidents is not None:
        metric = sanitize_metric_name("incidents", prefix)
        totals: Dict[tuple, int] = {}
        open_count = 0
        for incident in incidents:
            key = (str(incident["rule"]), str(incident["severity"]))
            totals[key] = totals.get(key, 0) + 1
            if incident.get("resolved_at") is None:
                open_count += 1
        lines.append(f"# TYPE {metric} counter")
        for (rule, severity), count in sorted(totals.items()):
            incident_labels = _render_labels(
                {**labels, "rule": rule, "severity": severity}
            )
            lines.append(f"{metric}_total{incident_labels} {count}")
        open_metric = sanitize_metric_name("incidents_open", prefix)
        lines.append(f"# TYPE {open_metric} gauge")
        lines.append(f"{open_metric}{label_text} {open_count}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_textfile(
    path: str,
    snapshot: Optional[Dict[str, Any]],
    prefix: str = "repro",
    labels: Optional[Mapping[str, str]] = None,
) -> str:
    """Render ``snapshot`` and write it to ``path``; returns the text."""
    text = render_openmetrics(snapshot, prefix=prefix, labels=labels)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


# ----------------------------------------------------------------------
# Chrome trace-event (Perfetto) export
# ----------------------------------------------------------------------
_US = 1e6  # trace-event timestamps are microseconds


def _instant_name(event: Mapping[str, Any]) -> Optional[str]:
    kind = event.get("kind")
    if kind == "cap_land":
        clock = event.get("clock_mhz")
        target = "uncap" if clock is None else f"{clock:.0f} MHz"
        return f"cap {event.get('priority')}: {target}"
    if kind == "brake_land":
        return "brake on" if event.get("on") else "brake off"
    if kind == "fallback_enter":
        return "fallback enter"
    if kind == "fallback_exit":
        return "fallback exit"
    return None


def render_chrome_trace(source: Any) -> Dict[str, Any]:
    """Render a recorded run as a Chrome trace-event JSON object.

    ``source`` is anything :func:`repro.obs.analyze.load_events`
    accepts (JSONL path, recorder, event sequence) or an already-fed
    :class:`~repro.obs.spans.SpanBuilder`. The layout:

    * ``pid 0`` — the row-control track: cap/brake landings and
      fallback transitions as instant events;
    * one process per server (``pid 1..N``): ``tid 0`` is the buffer
      lane (queue-wait slices of buffered requests), ``tid 1..`` are
      greedily assigned request lanes; each executed phase is a
      complete (``"X"``) slice, with an instant marking every cap/brake
      rescale that repriced it mid-flight.

    Spans still open at the end of the trace are clamped to the last
    event time. ``traceEvents`` is sorted by timestamp (metadata
    first), so per-track timestamps are monotonic. The result is
    JSON-serializable; Perfetto and ``chrome://tracing`` open it
    directly.
    """
    from repro.obs.analyze import load_events
    from repro.obs.spans import SpanBuilder

    if isinstance(source, SpanBuilder):
        builder = source
        instants = list(builder.control_events)
        timed = [float(e["t"]) for e in instants if "t" in e]
    else:
        events = load_events(source)
        builder = SpanBuilder()
        for event in events:
            builder.emit(event)
        instants = events
        timed = [float(e["t"]) for e in events if "t" in e]
    spans = builder.build()
    for span in spans:
        timed.append(span.arrival_t)
        if span.end_t is not None:
            timed.append(span.end_t)
        for phase in span.phases:
            timed.append(phase.end if phase.end is not None else phase.start)
    if builder.t_end is not None:
        timed.append(builder.t_end)
    t_clamp = max(timed) if timed else 0.0

    trace_events: List[Dict[str, Any]] = []
    trace_events.append({
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0, "ts": 0,
        "args": {"name": "row control"},
    })
    servers = sorted(
        {span.server for span in spans if span.server is not None}
        | set(builder.meta.get("servers") or {})
    )
    pids = {server: index + 1 for index, server in enumerate(servers)}
    for server, pid in pids.items():
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": f"server {server}"},
        })

    for event in instants:
        name = _instant_name(event)
        if name is None:
            continue
        trace_events.append({
            "ph": "i", "s": "g", "name": name, "cat": "control",
            "ts": float(event["t"]) * _US, "pid": 0, "tid": 0,
            "args": {
                key: value for key, value in event.items()
                if key not in ("t", "kind")
            },
        })

    # Greedy lane assignment per server: a request takes the first lane
    # whose previous occupant finished by its start.
    lanes: Dict[str, List[float]] = {}
    for span in sorted(
        spans, key=lambda s: (s.start_t if s.start_t is not None else
                              s.arrival_t)
    ):
        if span.server is None or not span.phases:
            continue
        pid = pids[span.server]
        start = span.phases[0].start
        end = span.end_t if span.end_t is not None else t_clamp
        if span.queued and start > span.arrival_t:
            trace_events.append({
                "ph": "X", "name": f"queued r{span.request_id}",
                "cat": "queue", "ts": span.arrival_t * _US,
                "dur": (start - span.arrival_t) * _US,
                "pid": pid, "tid": 0,
                "args": {"request_id": span.request_id},
            })
        server_lanes = lanes.setdefault(span.server, [])
        for lane, busy_until in enumerate(server_lanes):
            if busy_until <= start:
                break
        else:
            server_lanes.append(0.0)
            lane = len(server_lanes) - 1
        server_lanes[lane] = end
        tid = lane + 1
        for phase in span.phases:
            phase_end = phase.end if phase.end is not None else t_clamp
            trace_events.append({
                "ph": "X",
                "name": f"{phase.phase} r{span.request_id}",
                "cat": "phase",
                "ts": phase.start * _US,
                "dur": max(0.0, phase_end - phase.start) * _US,
                "pid": pid, "tid": tid,
                "args": {
                    "request_id": span.request_id,
                    "priority": span.priority,
                    "workload": span.workload,
                    "full_clock_s": phase.full_clock_s,
                    "ratios": [iv.ratio for iv in phase.intervals],
                },
            })
            for interval in phase.intervals:
                if interval.cause is None:
                    continue
                trace_events.append({
                    "ph": "i", "s": "t",
                    "name": f"{interval.cause} -> {interval.ratio:.2f}",
                    "cat": "rescale",
                    "ts": interval.start * _US, "pid": pid, "tid": tid,
                    "args": dict(interval.stamp),
                })

    trace_events.sort(
        key=lambda e: (0 if e["ph"] == "M" else 1, e["ts"])
    )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, source: Any) -> Dict[str, Any]:
    """Render ``source`` as a Chrome trace and write it to ``path``."""
    trace = render_chrome_trace(source)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return trace
