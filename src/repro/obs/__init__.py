"""repro.obs — observability for the simulator and its sweeps.

The paper's argument is made of *visible* power behaviour: per-row
telemetry series (Figure 16), cap/brake event timelines (Figure 18),
and the controller's view of both under faults. This package records
that behaviour from live runs without perturbing them, around one
event model: the simulator emits plain-dict events, each stamped with
its simulation time ``t``, to one
:class:`~repro.obs.recorder.TraceRecorder`, and every consumer below is
a recorder over that same stream — fed live (alone or through a
:class:`~repro.obs.stream.TeeRecorder`) or replayed from a stored trace
(:func:`~repro.obs.analyze.load_events` reads a JSONL path, ``str`` or
``os.PathLike``, a recorder, or an event list). The default
:data:`~repro.obs.recorder.NULL_RECORDER` is disabled and every hook is
guarded by that flag, so an uninstrumented run is bit-identical to the
pre-observability simulator.

* **Storage**: in-memory and JSONL sinks (:mod:`~repro.obs.recorder`,
  with a deterministic per-kind sample) and per-run spooling
  (:mod:`~repro.obs.collect`); a :class:`~repro.obs.metrics
  .MetricsRegistry` snapshot lands in ``SimulationResult.observability``.
* **Windows**: :mod:`~repro.obs.stream` holds the one set of sliding
  window aggregators (EWMA, rolling rate, window max/quantile). The
  :class:`~repro.obs.stream.StreamMonitor` probes and the
  :mod:`~repro.obs.alerts` rules read them: a rate rule is a rolling
  count, an SLO rule two (all serves, violating serves). The
  :class:`~repro.obs.alerts.AlertEngine` routes events to rules by
  kind and steps every rule at every timed event into
  :class:`~repro.obs.alerts.Incident` lifecycles.
* **Control plane**: one :class:`~repro.obs.analyze.ControlReplay` of
  the brake, cap and fallback state machines yields the Figure 18
  timelines (:func:`~repro.obs.analyze.brake_timeline`,
  :func:`~repro.obs.analyze.cap_timeline`,
  :func:`~repro.obs.analyze.fallback_windows`) and the causal stamps
  of :class:`~repro.obs.spans.SpanBuilder`'s per-request span trees,
  which :mod:`~repro.obs.attribution` decomposes exactly into
  queue-wait / service / cap / brake / fallback seconds.
  :func:`~repro.obs.analyze.cross_check` re-derives every reported
  counter from the trace.
* **Comparison**: :mod:`~repro.obs.diff` finds the first divergent
  event of two traces, and its one nested-data walker
  (:func:`~repro.obs.diff.walk_leaves`) also drives
  :mod:`~repro.obs.regress`'s per-metric baseline verdicts; the
  :mod:`~repro.obs.ledger` journals engine runs.
* **Rendering**: :mod:`~repro.obs.query` (filter, aggregate, join),
  OpenMetrics and Chrome/Perfetto export (:mod:`~repro.obs.export`),
  and the static HTML :mod:`~repro.obs.dashboard`.

This namespace re-exports only the names code, tests and documented
examples import through it; everything else (rule classes, report
dataclasses, stream aggregators) imports from its module, e.g.
``from repro.obs.alerts import RateRule``.
"""

from repro.obs.alerts import (
    AlertEngine,
    Incident,
    default_rules,
    incident_table,
)
from repro.obs.analyze import (
    brake_timeline,
    cap_timeline,
    cross_check,
    fallback_windows,
    load_events,
    summarize_trace,
    utilization_points,
)
from repro.obs.attribution import (
    COMPONENTS,
    attribute_run,
    attribution_table,
    top_victims,
)
from repro.obs.collect import TraceCollector
from repro.obs.dashboard import PALETTE, Dashboard, render_sparkline
from repro.obs.diff import diff_traces, format_divergence
from repro.obs.export import (
    render_chrome_trace,
    render_openmetrics,
    write_chrome_trace,
    write_textfile,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    ExperimentLedger,
    environment_stamp,
    headline_metrics,
    read_ledger,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    aggregate_snapshots,
)
from repro.obs.regress import (
    DEFAULT_POLICIES,
    Tolerance,
    check_bench,
    check_bench_dir,
    check_ledger,
    compare_metrics,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    TraceRecorder,
    hash_fraction,
    read_jsonl,
)
from repro.obs.query import (
    filter_events,
    group_aggregate,
    parse_agg,
    project,
    quantile,
    span_join,
)
from repro.obs.spans import SpanBuilder, build_spans, render_span_tree
from repro.obs.stream import StreamMonitor, TeeRecorder

__all__ = [
    "AlertEngine",
    "COMPONENTS",
    "DEFAULT_POLICIES",
    "Dashboard",
    "ExperimentLedger",
    "Incident",
    "JsonlRecorder",
    "LATENCY_BUCKETS",
    "LEDGER_SCHEMA_VERSION",
    "MemoryRecorder",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "PALETTE",
    "SpanBuilder",
    "StreamMonitor",
    "TeeRecorder",
    "Tolerance",
    "TraceCollector",
    "TraceRecorder",
    "aggregate_snapshots",
    "attribute_run",
    "attribution_table",
    "brake_timeline",
    "build_spans",
    "cap_timeline",
    "check_bench",
    "check_bench_dir",
    "check_ledger",
    "compare_metrics",
    "cross_check",
    "default_rules",
    "diff_traces",
    "environment_stamp",
    "fallback_windows",
    "filter_events",
    "format_divergence",
    "group_aggregate",
    "hash_fraction",
    "headline_metrics",
    "incident_table",
    "load_events",
    "parse_agg",
    "project",
    "quantile",
    "read_jsonl",
    "read_ledger",
    "render_chrome_trace",
    "render_openmetrics",
    "render_span_tree",
    "render_sparkline",
    "span_join",
    "summarize_trace",
    "top_victims",
    "utilization_points",
    "write_chrome_trace",
    "write_textfile",
]
