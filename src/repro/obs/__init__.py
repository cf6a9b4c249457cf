"""repro.obs — observability for the simulator and the sweep engine.

The paper's argument is made of *visible* power behaviour: per-row
telemetry series (Figure 16), cap/brake event timelines (Figure 18),
and the controller's view of both under faults. This package records
that behaviour from live runs without perturbing them:

* :class:`~repro.obs.recorder.TraceRecorder` sinks — in-memory, JSONL,
  CSV — receive structured events from hook points threaded through
  :class:`~repro.cluster.simulator.ClusterSimulator` (control decisions,
  cap/brake issue→land→verify lifecycles, fallback entry/exit, churn,
  request drops) and :class:`~repro.exec.engine.SweepEngine` (per-run
  wall time, cache hits, worker ids, digests). The default
  :data:`~repro.obs.recorder.NULL_RECORDER` reports ``enabled = False``
  and every hook is guarded by that flag, so an uninstrumented run is
  bit-identical to the pre-observability simulator;
* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges,
  and histograms is snapshotted into
  ``SimulationResult.observability`` for instrumented runs and can be
  aggregated across a sweep with
  :func:`~repro.obs.metrics.aggregate_snapshots`;
* :mod:`repro.obs.analyze` reconstructs brake/cap timelines from a
  trace and :func:`~repro.obs.analyze.cross_check`\\ s every reported
  counter against the event stream, making the trace a self-validating
  artifact (``examples/trace_inspect.py`` renders it);
* the live layer (``repro.obs.live`` in the docs) consumes the same
  stream *online*: :mod:`repro.obs.stream` provides per-event windowed
  aggregators (:class:`~repro.obs.stream.Ewma`, rolling rates,
  sliding-window max/quantile) behind a
  :class:`~repro.obs.stream.StreamMonitor`, with
  :class:`~repro.obs.stream.TeeRecorder` composing monitors with
  storage sinks; :mod:`repro.obs.alerts` evaluates declarative
  :class:`~repro.obs.alerts.AlertRule`\\ s (for-duration, hysteresis,
  dedup) into :class:`~repro.obs.alerts.Incident` lifecycles that the
  simulator snapshots into ``SimulationResult.observability``;
  :mod:`repro.obs.export` renders snapshots as OpenMetrics text; and
  :mod:`repro.obs.diff` localizes the first divergent event between
  two traces (or results) for one-command root-causing;
* the causal layer answers "*why* was this request slow":
  :mod:`repro.obs.spans` folds the stream into per-request span trees
  (arrival → queue-wait → prompt → token → completion/drop, each phase
  carrying its cap/brake rate intervals) via the
  :class:`~repro.obs.spans.SpanBuilder` recorder;
  :mod:`repro.obs.attribution` computes exact (Fraction-arithmetic)
  counterfactual full-clock latencies and decomposes realized latency
  into queue-wait / service / cap-slowdown / brake-stall / fallback
  seconds and excess energy, attributed to the specific cap generation
  or brake version at fault (:func:`~repro.obs.attribution.attribute_run`,
  :func:`~repro.obs.attribution.top_victims`); and
  :func:`~repro.obs.export.render_chrome_trace` exports any trace in
  the Chrome trace-event / Perfetto JSON format for visual inspection;
* the cross-run layer is the memory between executions:
  :mod:`repro.obs.ledger` journals every engine run (provenance,
  rusage, headline metrics, environment stamp) into an append-only
  JSONL :class:`~repro.obs.ledger.ExperimentLedger`;
  :mod:`repro.obs.regress` diffs fresh benchmark reports and ledgers
  against committed baselines under per-metric tolerance policies
  (exact for deterministic metrics, relative-with-noise-floor for
  timings — the CI regression sentinel); and
  :mod:`repro.obs.dashboard` renders sweeps, timelines, incidents,
  attribution, kernel timers, and ledger history into one
  deterministic dependency-free static HTML page.
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    Incident,
    RateRule,
    SloViolationRule,
    ThresholdRule,
    default_rules,
    incident_table,
    merge_incident_snapshots,
)
from repro.obs.analyze import (
    BrakeSpan,
    CapCommand,
    CheckItem,
    CrossCheckReport,
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
    AttributionReport,
    RequestAttribution,
    attribute_run,
    attribution_table,
    top_victims,
)
from repro.obs.collect import (
    RollupRecorder,
    SamplingRecorder,
    TraceCollector,
    TraceJob,
    hash_fraction,
)
from repro.obs.dashboard import (
    PALETTE,
    Dashboard,
    render_sparkline,
)
from repro.obs.diff import (
    Divergence,
    diff_dicts,
    diff_results,
    diff_traces,
    format_divergence,
)
from repro.obs.export import (
    render_chrome_trace,
    render_openmetrics,
    sanitize_metric_name,
    write_chrome_trace,
    write_textfile,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    ExperimentLedger,
    environment_stamp,
    headline_metrics,
    read_ledger,
    rusage_snapshot,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
)
from repro.obs.regress import (
    DEFAULT_POLICIES,
    MetricDiff,
    RegressionReport,
    Tolerance,
    check_bench,
    check_bench_dir,
    check_ledger,
    compare_metrics,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    CsvRecorder,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
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
from repro.obs.spans import (
    PhaseSpan,
    RateInterval,
    RequestSpan,
    SpanBuilder,
    build_spans,
    render_span_tree,
)
from repro.obs.stream import (
    Ewma,
    RollingRate,
    StreamMonitor,
    TeeRecorder,
    WindowMax,
    WindowQuantile,
)

__all__ = [
    "AlertEngine",
    "AlertRule",
    "AttributionReport",
    "BrakeSpan",
    "COMPONENTS",
    "CapCommand",
    "CheckItem",
    "Counter",
    "CrossCheckReport",
    "CsvRecorder",
    "DEFAULT_POLICIES",
    "Dashboard",
    "Divergence",
    "Ewma",
    "ExperimentLedger",
    "Gauge",
    "Histogram",
    "Incident",
    "JsonlRecorder",
    "LATENCY_BUCKETS",
    "LEDGER_SCHEMA_VERSION",
    "MemoryRecorder",
    "MetricDiff",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "PALETTE",
    "PhaseSpan",
    "RateInterval",
    "RateRule",
    "RegressionReport",
    "RequestAttribution",
    "RequestSpan",
    "RollingRate",
    "RollupRecorder",
    "SamplingRecorder",
    "SloViolationRule",
    "SpanBuilder",
    "StreamMonitor",
    "TeeRecorder",
    "ThresholdRule",
    "Tolerance",
    "TraceCollector",
    "TraceEvent",
    "TraceJob",
    "TraceRecorder",
    "WindowMax",
    "WindowQuantile",
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
    "diff_dicts",
    "diff_results",
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
    "merge_incident_snapshots",
    "parse_agg",
    "project",
    "quantile",
    "read_jsonl",
    "read_ledger",
    "render_chrome_trace",
    "render_openmetrics",
    "render_span_tree",
    "render_sparkline",
    "rusage_snapshot",
    "sanitize_metric_name",
    "span_join",
    "summarize_trace",
    "top_victims",
    "utilization_points",
    "write_chrome_trace",
    "write_textfile",
]
