"""Per-request span trees reconstructed from the simulator's trace stream.

The recorder layer (:mod:`repro.obs.recorder`) sees a flat event stream;
this module folds it back into the shape operators actually debug with:
one span tree per request — arrival → queue-wait → prompt phase → token
phase → completion/drop — where every phase carries its *rate intervals*:
the maximal stretches of simulation time during which the phase ran at
one effective clock ratio. Every cap or brake landing that rescales an
in-flight phase closes the current interval and opens a new one stamped
with the action that caused it (cap priority + generation, brake version
+ source), so a span answers "why was this request slow" directly.

:class:`SpanBuilder` is itself a :class:`~repro.obs.recorder.TraceRecorder`:
attach it live (alone or inside a :class:`~repro.obs.stream.TeeRecorder`)
and it contributes ``spans`` / ``attribution`` sections to
``SimulationResult.observability``; or replay any recorded JSONL trace
post-hoc with :func:`build_spans`. Like every recorder it only observes —
it never touches simulator state, so recorded runs stay bit-identical to
unrecorded ones.

The causal stamping is derived from a replay of the cap/brake state
machines (not from the rescale event's trigger alone) — the same
:class:`~repro.obs.analyze.ControlReplay` that rebuilds the Figure 18
timelines: when a brake releases over a still-capped pool, the interval
that opens is correctly blamed on the underlying cap, and caps
commanded during a stale-telemetry fallback window are flagged so
attribution can charge them to the fallback, not the capping policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.analyze import ControlReplay, load_events
from repro.obs.recorder import TraceEvent, TraceRecorder

__all__ = [
    "PhaseSpan",
    "RateInterval",
    "RequestSpan",
    "SpanBuilder",
    "build_spans",
    "render_span_tree",
]


@dataclass
class RateInterval:
    """A maximal stretch of one phase at one effective clock ratio.

    Attributes:
        start: Interval start (simulation seconds).
        end: Interval end; ``None`` while still open.
        ratio: Effective clock ratio during the interval (1.0 = full
            clock; the brake and caps push it below 1.0).
        cause: ``"cap"``, ``"brake"``, or ``None`` for full clock.
        stamp: The action identity behind ``cause`` — for caps
            ``{"priority", "generation", "fallback"}``, for brakes
            ``{"version", "source"}``.
    """

    start: float
    end: Optional[float]
    ratio: float
    cause: Optional[str] = None
    stamp: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> Optional[float]:
        """Interval length, or ``None`` while open."""
        if self.end is None:
            return None
        return self.end - self.start


@dataclass
class PhaseSpan:
    """One phase (prompt or token) of a request's execution.

    Attributes:
        phase: ``"prompt"`` or ``"token"``.
        phase_index: Position in the request's segment timeline.
        start: Phase start time.
        end: Phase end time; ``None`` while in flight.
        full_clock_s: The phase's duration at the maximum SM clock.
        compute_fraction: Clock sensitivity of the duration (1.0
            stretches inversely with clock, 0.0 is clock-insensitive).
        intervals: Contiguous rate intervals tiling ``[start, end]``.
    """

    phase: str
    phase_index: int
    start: float
    end: Optional[float]
    full_clock_s: float
    compute_fraction: float
    intervals: List[RateInterval] = field(default_factory=list)

    @property
    def seconds(self) -> Optional[float]:
        """Realized phase duration, or ``None`` while open."""
        if self.end is None:
            return None
        return self.end - self.start


@dataclass
class RequestSpan:
    """The full lifecycle of one request, reconstructed from the trace.

    Attributes:
        request_id: Index of the request in the run's trace (the
            simulator stamps arrival order).
        arrival_t: Arrival time.
        priority: Priority-pool value (``"low"`` / ``"high"``).
        workload: Workload tier name.
        server: Server the request was routed to (``None`` if it was
            dropped at routing time).
        queued: Whether it waited in the server's one-request buffer.
        outcome: ``"served"``, ``"dropped"``, or ``"in_flight"`` (the
            trace ended first — only possible on truncated traces).
        drop_reason: ``"saturated"`` / ``"churn"`` / ``"shed"`` /
            ``"trip"`` when dropped.
        drop_device: The protection device behind a ``"trip"`` drop
            (``None`` otherwise).
        deferrals: Times the request was deferred by emergency load
            shedding before being admitted (or dropped);
            ``arrival_t`` stays the *original* arrival, so the defer
            delay lands in queue wait.
        end_t: Completion or drop time.
        latency_s: The serve event's reported latency (served only).
        phases: Executed phases in order.
    """

    request_id: int
    arrival_t: float
    priority: Optional[str] = None
    workload: Optional[str] = None
    input_tokens: Optional[int] = None
    output_tokens: Optional[int] = None
    server: Optional[str] = None
    queued: bool = False
    outcome: str = "in_flight"
    drop_reason: Optional[str] = None
    drop_device: Optional[str] = None
    deferrals: int = 0
    end_t: Optional[float] = None
    latency_s: Optional[float] = None
    phases: List[PhaseSpan] = field(default_factory=list)

    @property
    def start_t(self) -> Optional[float]:
        """When execution began (``None`` if it never got a slot)."""
        if not self.phases:
            return None
        return self.phases[0].start

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Arrival-to-first-phase wait (``None`` if never started)."""
        if not self.phases:
            return None
        return self.phases[0].start - self.arrival_t

    @property
    def realized_s(self) -> Optional[float]:
        """End-to-end latency (``None`` while in flight)."""
        if self.end_t is None:
            return None
        return self.end_t - self.arrival_t


class SpanBuilder(TraceRecorder):
    """Folds the simulator's event stream into per-request span trees.

    Use it live — pass it (or a :class:`~repro.obs.stream.TeeRecorder`
    containing it) as the simulator's recorder and read
    :meth:`build` afterwards; its :meth:`observability_snapshot`
    contributes ``spans`` and ``attribution`` sections to
    ``SimulationResult.observability`` — or post-hoc on any recorded
    trace via :func:`build_spans` / :meth:`from_source`.

    Events must arrive in stream order (nondecreasing ``t``, ties in
    emission order), which is exactly what the simulator emits and what
    :func:`repro.obs.analyze.load_events` restores from storage. Events
    of unknown kinds are ignored, so traces from newer or older
    simulators degrade gracefully.
    """

    def __init__(self) -> None:
        self.meta: Dict[str, Any] = {}
        self.t_end: Optional[float] = None
        #: Control-plane instants (cap/brake landings, fallback
        #: transitions) retained verbatim so exporters fed a live
        #: builder can still draw the row-control track.
        self.control_events: List[TraceEvent] = []
        # The replayed cap/brake/fallback state machines behind the
        # causal stamps.
        self._control = ControlReplay()
        self._spans: Dict[int, RequestSpan] = {}
        self._open_phase: Dict[int, PhaseSpan] = {}
        self._server_priority: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # TraceRecorder interface
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        kind = event.get("kind")
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, event)
            return
        if kind in _CONTROL_INSTANTS:
            self.control_events.append(dict(event))
        self._control.emit(event)

    def finalize(self, t_end: float) -> None:
        self.t_end = float(t_end)

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        # Local import: repro.obs.attribution imports this module.
        from repro.obs.attribution import attribute_run

        outcomes: Dict[str, int] = {}
        for span in self._spans.values():
            outcomes[span.outcome] = outcomes.get(span.outcome, 0) + 1
        return {
            "spans": {"requests": len(self._spans), "outcomes": outcomes},
            "attribution": attribute_run(self).snapshot(),
        }

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @classmethod
    def from_source(cls, source: Any) -> "SpanBuilder":
        """Build from a JSONL path, recorder, or event sequence."""
        if isinstance(source, SpanBuilder):
            return source
        builder = cls()
        for event in load_events(source):
            builder.emit(event)
        return builder

    def build(self) -> List[RequestSpan]:
        """Every reconstructed span, ordered by request id."""
        return [self._spans[rid] for rid in sorted(self._spans)]

    def get(self, request_id: int) -> Optional[RequestSpan]:
        """The span for one request id, or ``None``."""
        return self._spans.get(request_id)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_run_meta(self, event: TraceEvent) -> None:
        self.meta = dict(event)
        servers = event.get("servers") or {}
        self._server_priority = {
            str(sid): str(priority) for sid, priority in servers.items()
        }

    def _on_req_arrival(self, event: TraceEvent) -> None:
        rid = int(event["request_id"])
        span = self._spans.get(rid)
        if span is None:
            span = RequestSpan(request_id=rid, arrival_t=float(event["t"]))
            self._spans[rid] = span
        # A span opened earlier by a shed_defer keeps its original
        # arrival_t — the defer delay must land in queue wait, matching
        # the simulator's latency accounting.
        span.priority = event.get("priority")
        span.workload = event.get("workload")
        span.input_tokens = event.get("input_tokens")
        span.output_tokens = event.get("output_tokens")
        span.server = event.get("server")
        span.queued = bool(event.get("queued", False))

    def _on_shed_defer(self, event: TraceEvent) -> None:
        rid = int(event["request_id"])
        span = self._spans.get(rid)
        if span is None:
            span = RequestSpan(
                request_id=rid,
                arrival_t=float(event["t"]),
                priority=event.get("priority"),
                workload=event.get("workload"),
            )
            self._spans[rid] = span
        span.deferrals = int(event.get("deferrals", span.deferrals + 1))

    def _require(self, event: TraceEvent) -> RequestSpan:
        rid = int(event["request_id"])
        span = self._spans.get(rid)
        if span is None:
            # Filtered trace (no req_arrival): keep what can be kept.
            span = RequestSpan(request_id=rid, arrival_t=float(event["t"]))
            self._spans[rid] = span
        return span

    def _close_phase(self, rid: int, t: float) -> None:
        phase = self._open_phase.pop(rid, None)
        if phase is None:
            return
        phase.end = t
        if phase.intervals and phase.intervals[-1].end is None:
            phase.intervals[-1].end = t

    def _on_phase_start(self, event: TraceEvent) -> None:
        span = self._require(event)
        t = float(event["t"])
        self._close_phase(span.request_id, t)
        if span.server is None:
            span.server = event.get("server")
        ratio = float(event["ratio"])
        cause, stamp = self._current_cause(event.get("server"), ratio)
        phase = PhaseSpan(
            phase=str(event["phase"]),
            phase_index=int(event.get("phase_index", len(span.phases))),
            start=t,
            end=None,
            full_clock_s=float(event.get("full_clock_s", 0.0)),
            compute_fraction=float(event.get("compute_fraction", 1.0)),
            intervals=[
                RateInterval(
                    start=t, end=None, ratio=ratio,
                    cause=cause, stamp=stamp,
                )
            ],
        )
        span.phases.append(phase)
        self._open_phase[span.request_id] = phase

    def _on_phase_rescale(self, event: TraceEvent) -> None:
        phase = self._open_phase.get(int(event["request_id"]))
        if phase is None:
            return
        t = float(event["t"])
        if phase.intervals and phase.intervals[-1].end is None:
            phase.intervals[-1].end = t
        ratio = float(event["new_ratio"])
        # The cause comes from the replayed state machines, not from the
        # rescale's trigger: a brake *release* over a capped pool opens
        # an interval owed to the cap, not to the brake.
        cause, stamp = self._current_cause(event.get("server"), ratio)
        phase.intervals.append(
            RateInterval(start=t, end=None, ratio=ratio,
                         cause=cause, stamp=stamp)
        )

    def _on_serve(self, event: TraceEvent) -> None:
        if "request_id" not in event:
            return  # a pre-span trace: nothing to anchor the span to
        span = self._require(event)
        t = float(event["t"])
        self._close_phase(span.request_id, t)
        span.outcome = "served"
        span.end_t = t
        span.latency_s = event.get("latency_s")

    def _on_drop(self, event: TraceEvent) -> None:
        if "request_id" not in event:
            return
        span = self._require(event)
        t = float(event["t"])
        self._close_phase(span.request_id, t)
        span.outcome = "dropped"
        span.drop_reason = event.get("reason")
        span.drop_device = event.get("device")
        span.end_t = t

    def _current_cause(
        self, server: Any, ratio: float
    ) -> Tuple[Optional[str], Dict[str, Any]]:
        """Who is responsible for running at ``ratio`` right now."""
        return self._control.cause(
            self._server_priority.get(str(server)), ratio
        )

    _HANDLERS = {
        "run_meta": _on_run_meta,
        "req_arrival": _on_req_arrival,
        "shed_defer": _on_shed_defer,
        "phase_start": _on_phase_start,
        "phase_rescale": _on_phase_rescale,
        "serve": _on_serve,
        "drop": _on_drop,
    }


#: Control-plane kinds :attr:`SpanBuilder.control_events` retains.
_CONTROL_INSTANTS = frozenset(
    ("brake_land", "cap_land", "fallback_enter", "fallback_exit")
)


def build_spans(source: Any) -> List[RequestSpan]:
    """Reconstruct every request span from a recorded trace.

    ``source`` is anything :func:`repro.obs.analyze.load_events`
    accepts — a JSONL path, a recorder with an ``events`` list, or an
    event sequence — or an already-fed :class:`SpanBuilder`.
    """
    return SpanBuilder.from_source(source).build()


def _describe_cause(interval: RateInterval) -> str:
    if interval.cause == "brake":
        version = interval.stamp.get("version")
        source = interval.stamp.get("source", "policy")
        return f" <- brake v{version} ({source})"
    if interval.cause == "cap":
        pool = interval.stamp.get("priority") or "?"
        generation = interval.stamp.get("generation")
        text = f" <- cap {pool} gen {generation}"
        if interval.stamp.get("fallback"):
            text += " [fallback]"
        return text
    return ""


def render_span_tree(span: RequestSpan) -> List[str]:
    """Printable lines for one request's span tree."""
    tier = f"{span.priority or '?'}/{span.workload or '?'}"
    lines = [f"request {span.request_id} [{tier}] - {span.outcome}"]
    routed = span.server if span.server is not None else "unrouted"
    buffered = " (buffered)" if span.queued else ""
    lines.append(
        f"  arrival  t={span.arrival_t:10.3f}s  -> {routed}{buffered}"
    )
    if span.deferrals:
        lines.append(f"  deferred {span.deferrals}x by load shedding")
    wait = span.queue_wait_s
    if wait is not None:
        lines.append(f"  queue-wait {wait:.3f}s")
    for phase in span.phases:
        end = f"{phase.end:.3f}s" if phase.end is not None else "..."
        took = (
            f" ({phase.seconds:.3f}s, full-clock {phase.full_clock_s:.3f}s)"
            if phase.end is not None
            else f" (full-clock {phase.full_clock_s:.3f}s)"
        )
        lines.append(
            f"  {phase.phase:<7}t={phase.start:10.3f}s  -> {end}{took}"
        )
        for interval in phase.intervals:
            iv_end = (
                f"{interval.end:.3f}s" if interval.end is not None else "..."
            )
            lines.append(
                f"    ratio {interval.ratio:5.3f}  "
                f"t={interval.start:10.3f}s -> {iv_end}"
                f"{_describe_cause(interval)}"
            )
    if span.outcome == "served" and span.end_t is not None:
        lines.append(
            f"  served   t={span.end_t:10.3f}s  "
            f"(latency {span.realized_s:.3f}s)"
        )
    elif span.outcome == "dropped" and span.end_t is not None:
        device = f" @ {span.drop_device}" if span.drop_device else ""
        lines.append(
            f"  dropped  t={span.end_t:10.3f}s  ({span.drop_reason}{device})"
        )
    return lines
