"""Turn a simulation trace into timelines and a self-validating artifact.

The trace a :class:`~repro.obs.recorder.TraceRecorder` captures is only
trustworthy if it agrees with the simulator's own accounting. This
module reconstructs the brake and cap lifecycles (the Figure 18 event
timeline) and the fallback windows from the raw event stream, and
:func:`cross_check` re-derives every counter the simulator reports —
``power_brake_events``, ``capping_actions``, the full
:class:`~repro.faults.report.RobustnessReport` ledger, per-tier
served/dropped counts — from the trace alone, comparing them entry by
entry against the :class:`~repro.cluster.metrics.SimulationResult`. A
trace that passes is a faithful record; a mismatch means either a
filtered trace (see the recorders' ``kinds`` option) or an
instrumentation bug worth failing a test over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, SimulationError
from repro.obs.recorder import TraceEvent, read_jsonl
from repro.workloads.spec import Priority

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import
    # cycle: the simulator imports repro.obs for its default recorder)
    from repro.cluster.metrics import SimulationResult

__all__ = [
    "BrakeSpan",
    "CapCommand",
    "CheckItem",
    "CrossCheckReport",
    "brake_timeline",
    "cap_timeline",
    "cross_check",
    "fallback_windows",
    "load_events",
    "summarize_trace",
    "utilization_points",
]


def load_events(source: Any) -> List[TraceEvent]:
    """Normalize a trace source into an event list.

    Accepts a JSONL path, a :class:`~repro.obs.recorder.MemoryRecorder`,
    or an already-loaded event sequence. Events are returned sorted by
    ``t`` (stable, so same-time events keep emission order; events
    without ``t``, which only foreign JSONL carries, sort first).
    """
    if isinstance(source, str):
        events: Sequence[TraceEvent] = read_jsonl(source)
    elif hasattr(source, "events"):
        events = source.events
    else:
        events = list(source)
    return sorted(events, key=lambda e: float(e.get("t", float("-inf"))))


def _count(events: Sequence[TraceEvent], kind: str, **match: Any) -> int:
    total = 0
    for event in events:
        if event.get("kind") != kind:
            continue
        if all(event.get(key) == value for key, value in match.items()):
            total += 1
    return total


# ----------------------------------------------------------------------
# Timeline reconstruction
# ----------------------------------------------------------------------
@dataclass
class BrakeSpan:
    """One brake engagement, from request to release.

    Attributes:
        requested_at: When the controller decided to engage.
        source: ``"policy"`` (utilization spike) or ``"fallback"``
            (persistent telemetry staleness).
        engaged_at: When the brake landed row-wide (``None`` if the run
            ended first).
        release_requested_at: When a release was last requested.
        released_at: When the release landed (``None`` while engaged).
        cancelled_releases: Pending releases cancelled by a fresh spike
            (the re-engage race path — not new engagements).
    """

    requested_at: float
    source: str
    engaged_at: Optional[float] = None
    release_requested_at: Optional[float] = None
    released_at: Optional[float] = None
    cancelled_releases: int = 0

    @property
    def engaged_duration_s(self) -> Optional[float]:
        """Landed-to-released span (``None`` if either end is open)."""
        if self.engaged_at is None or self.released_at is None:
            return None
        return self.released_at - self.engaged_at


def brake_timeline(events: Sequence[TraceEvent]) -> List[BrakeSpan]:
    """Reconstruct brake engagements from the event stream.

    The simulator emits lifecycle events only when they take effect
    (superseded landings are filtered at the source), so the
    reconstruction is a direct replay of the brake state machine.
    """
    spans: List[BrakeSpan] = []
    open_span: Optional[BrakeSpan] = None
    for event in events:
        kind = event.get("kind")
        if kind == "brake_request":
            open_span = BrakeSpan(
                requested_at=float(event["t"]),
                source=str(event.get("source", "policy")),
            )
            spans.append(open_span)
        elif open_span is None:
            continue
        elif kind == "brake_land":
            if event.get("on"):
                open_span.engaged_at = float(event["t"])
            else:
                open_span.released_at = float(event["t"])
                open_span = None
        elif kind == "brake_release_request":
            open_span.release_requested_at = float(event["t"])
        elif kind == "brake_cancel_release":
            open_span.cancelled_releases += 1
            open_span.release_requested_at = None
    return spans


@dataclass
class CapCommand:
    """One frequency-cap command lifecycle for a priority group.

    Attributes:
        issued_at: First dispatch time.
        priority: Target priority pool.
        clock_mhz: Commanded SM clock (``None`` = uncap).
        generation: The group's command generation stamp.
        landed_at: When the (first effective) landing applied.
        verified: Verify outcome (``None`` when verification is elided —
            perfect actuation paths skip it).
        reissues: Re-dispatches by the reliable-command layer.
    """

    issued_at: float
    priority: str
    clock_mhz: Optional[float]
    generation: int
    landed_at: Optional[float] = None
    verified: Optional[bool] = None
    reissues: int = 0


def cap_timeline(events: Sequence[TraceEvent]) -> List[CapCommand]:
    """Reconstruct cap-command lifecycles, in issue order."""
    by_key: Dict[Tuple[str, int], CapCommand] = {}
    commands: List[CapCommand] = []
    for event in events:
        kind = event.get("kind")
        if kind not in ("cap_issue", "cap_land", "cap_verify", "cap_reissue"):
            continue
        key = (str(event["priority"]), int(event["generation"]))
        if kind == "cap_issue":
            if int(event.get("attempts", 0)) == 0:
                command = CapCommand(
                    issued_at=float(event["t"]),
                    priority=key[0],
                    clock_mhz=event.get("clock_mhz"),
                    generation=key[1],
                )
                by_key[key] = command
                commands.append(command)
            continue
        command = by_key.get(key)
        if command is None:
            continue
        if kind == "cap_land" and command.landed_at is None:
            command.landed_at = float(event["t"])
        elif kind == "cap_verify":
            command.verified = bool(event["ok"])
        elif kind == "cap_reissue":
            command.reissues += 1
    return commands


def fallback_windows(
    events: Sequence[TraceEvent],
) -> List[Tuple[float, Optional[float]]]:
    """Stale-telemetry fallback windows as ``(entered, exited)`` pairs.

    An exit of ``None`` means the run ended inside the window.
    """
    windows: List[Tuple[float, Optional[float]]] = []
    entered: Optional[float] = None
    for event in events:
        kind = event.get("kind")
        if kind == "fallback_enter" and entered is None:
            entered = float(event["t"])
        elif kind == "fallback_exit" and entered is not None:
            windows.append((entered, float(event["t"])))
            entered = None
    if entered is not None:
        windows.append((entered, None))
    return windows


def utilization_points(
    events: Sequence[TraceEvent],
) -> List[Tuple[float, float]]:
    """The ``(t, observed utilization)`` series the policy actually saw.

    This is the controller's view — after telemetry noise, spikes,
    freezes, and delivery delay — not the true row power; compare it
    against ``SimulationResult.power_series`` to visualize exactly what
    the fault plan hid from the policy.
    """
    return [
        (float(event["t"]), float(event["utilization"]))
        for event in events
        if event.get("kind") == "control"
    ]


# ----------------------------------------------------------------------
# Trace-vs-result cross-checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckItem:
    """One reconstructed-vs-reported comparison."""

    name: str
    expected: Any
    actual: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass
class CrossCheckReport:
    """Outcome of replaying a trace against a simulation result.

    Attributes:
        checks: Every comparison performed (reported value first).
    """

    checks: List[CheckItem] = field(default_factory=list)

    @property
    def mismatches(self) -> List[CheckItem]:
        """The comparisons that disagreed."""
        return [check for check in self.checks if not check.ok]

    @property
    def ok(self) -> bool:
        """True when the trace reproduces every reported counter."""
        return not self.mismatches

    def require_ok(self) -> None:
        """Raise with a readable diff when any comparison disagreed.

        Raises:
            SimulationError: Listing every mismatched counter.
        """
        if self.ok:
            return
        lines = ", ".join(
            f"{c.name}: result={c.expected!r} trace={c.actual!r}"
            for c in self.mismatches
        )
        raise SimulationError(f"trace does not match result: {lines}")

    def summary_lines(self) -> List[str]:
        """Human-readable check-by-check report."""
        lines = [
            f"{len(self.checks)} checks, {len(self.mismatches)} mismatches"
        ]
        for check in self.checks:
            marker = "ok " if check.ok else "FAIL"
            lines.append(
                f"  [{marker}] {check.name}: result={check.expected!r} "
                f"trace={check.actual!r}"
            )
        return lines


def cross_check(
    source: Any, result: SimulationResult
) -> CrossCheckReport:
    """Re-derive the result's counters from its trace and compare.

    Every count below is computed twice by independent code paths — once
    by the simulator's inline accounting, once from the recorded event
    stream — so agreement validates both. Requires an unfiltered trace
    (recorders' ``kinds`` option elides events these checks need).

    Raises:
        ConfigurationError: If the result carries no robustness report
            (it always does when produced by :class:`ClusterSimulator`).
    """
    events = load_events(source)
    report = result.robustness
    if report is None:
        raise ConfigurationError(
            "cross_check needs a result with a robustness report"
        )
    checks: List[CheckItem] = []

    def check(name: str, expected: Any, actual: Any) -> None:
        checks.append(CheckItem(name=name, expected=expected, actual=actual))

    issue_events = [
        e for e in events if e.get("kind") in ("cap_issue", "brake_issue")
    ]
    verify_events = [
        e for e in events if e.get("kind") in ("cap_verify", "brake_verify")
    ]

    check(
        "power_brake_events",
        result.power_brake_events,
        _count(events, "brake_request"),
    )
    check(
        "capping_actions",
        result.capping_actions,
        _count(events, "cap_issue", attempts=0),
    )
    check("commands_issued", report.commands_issued, len(issue_events))
    check(
        "silent_actuation_failures",
        report.silent_actuation_failures,
        sum(1 for e in issue_events if e.get("silent")),
    )
    check(
        "reissues",
        report.reissues,
        _count(events, "cap_reissue") + _count(events, "brake_reissue"),
    )
    check(
        "commands_verified",
        report.commands_verified,
        sum(1 for e in verify_events if e.get("ok")),
    )
    check(
        "failures_detected",
        report.failures_detected,
        sum(1 for e in verify_events if not e.get("ok")),
    )
    check(
        "commands_recovered",
        report.commands_recovered,
        sum(
            1 for e in verify_events
            if e.get("ok") and int(e.get("attempts", 0)) > 0
        ),
    )
    check(
        "commands_unrecovered",
        report.commands_unrecovered,
        sum(1 for e in verify_events if e.get("abandoned")),
    )
    check(
        "fallback_entries",
        report.fallback_entries,
        _count(events, "fallback_enter"),
    )
    check(
        "fallback_brakes",
        report.fallback_brakes,
        _count(events, "brake_request", source="fallback"),
    )
    check(
        "telemetry_dropped_ticks",
        report.telemetry_dropped_ticks,
        _count(events, "telemetry_fault", fate="dropped"),
    )
    check(
        "telemetry_frozen_ticks",
        report.telemetry_frozen_ticks,
        _count(events, "telemetry_fault", fate="frozen"),
    )
    check(
        "server_failures",
        report.server_failures,
        _count(events, "server_fail"),
    )
    check(
        "server_recoveries",
        report.server_recoveries,
        _count(events, "server_recover"),
    )
    check(
        "requests_lost_to_churn",
        report.requests_lost_to_churn,
        _count(events, "drop", reason="churn"),
    )
    check("total_served", result.total_served, _count(events, "serve"))
    for priority in Priority:
        metrics = result.per_priority[priority]
        check(
            f"served[{priority.value}]",
            metrics.served,
            _count(events, "serve", priority=priority.value),
        )
        check(
            f"dropped[{priority.value}]",
            metrics.dropped,
            _count(events, "drop", priority=priority.value),
        )
    # The brake timeline must agree with the flat count too: every
    # reconstructed span is one engagement.
    check(
        "brake_timeline_spans",
        result.power_brake_events,
        len(brake_timeline(events)),
    )
    snapshot = result.observability
    if snapshot is not None:
        counters = snapshot.get("counters", {})
        check(
            "observability.requests_served",
            result.total_served,
            counters.get("requests.served"),
        )
        check(
            "observability.brake_engagements",
            result.power_brake_events,
            counters.get("brake.engagements"),
        )
        check(
            "observability.capping_actions",
            result.capping_actions,
            counters.get("commands.cap_actions"),
        )
    # --- Power-delivery protection audit (only when the run carried a
    # protection spec). Each ledger counter is re-derived from the trip,
    # shed, and re-energization events the protection layer emitted.
    powerfail = result.powerfail
    if powerfail is not None:
        check("powerfail.trips", powerfail.trips, _count(events, "trip"))
        check(
            "powerfail.cascade_trips",
            powerfail.cascade_trips,
            _count(events, "trip", cascaded=True),
        )
        check(
            "powerfail.shed_engagements",
            powerfail.shed_engagements,
            _count(events, "shed_engage"),
        )
        check(
            "powerfail.requests_dropped_shed",
            powerfail.requests_dropped_shed,
            _count(events, "drop", reason="shed"),
        )
        check(
            "powerfail.requests_deferred",
            powerfail.requests_deferred,
            _count(events, "shed_defer"),
        )
        check(
            "powerfail.requests_lost_to_trips",
            powerfail.requests_lost_to_trips,
            _count(events, "drop", reason="trip"),
        )
        check(
            "powerfail.reenergizations",
            powerfail.reenergizations,
            _count(events, "reenergize_done"),
        )
    # --- Span/attribution audit (only when the trace carries spans;
    # traces recorded before the span layer skip it). Conservation must
    # hold *exactly*: per served request, the attributed components sum
    # to the realized latency, and the realized latency re-derived from
    # span boundaries equals the serve event's reported one, bitwise.
    if any(e.get("kind") == "phase_start" for e in events):
        # Local import: repro.obs.attribution builds on repro.obs.spans,
        # which imports this module for load_events.
        from repro.obs.attribution import attribute_run

        attribution = attribute_run(events)
        check(
            "attribution.spans_served",
            result.total_served,
            len(attribution.requests),
        )
        check(
            "attribution.spans_dropped",
            sum(m.dropped for m in result.per_priority.values()),
            attribution.dropped,
        )
        check("attribution.spans_unfinished", 0, attribution.unfinished)
        check(
            "attribution.conservation_violations",
            0,
            len(attribution.conservation_violations),
        )
        check(
            "attribution.latency_mismatches",
            0,
            attribution.latency_mismatches,
        )
    return CrossCheckReport(checks=checks)


# ----------------------------------------------------------------------
# Human-readable rendering (the trace_inspect CLI's engine)
# ----------------------------------------------------------------------
def summarize_trace(source: Any) -> List[str]:
    """Render a trace as a compact timeline summary.

    Returns printable lines: event census, brake spans, cap commands,
    and fallback windows — the Figure 18 story of one run, from the
    artifact alone.
    """
    events = load_events(source)
    lines: List[str] = []
    census: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind"))
        census[kind] = census.get(kind, 0) + 1
    timed = [e for e in events if "t" in e]
    if timed:
        lines.append(
            f"{len(events)} events spanning "
            f"t={float(timed[0]['t']):.1f}s .. "
            f"t={float(timed[-1]['t']):.1f}s"
        )
    else:
        lines.append(f"{len(events)} events (no simulation-time events)")
    lines.append(
        "event census: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(census.items())
        )
    )

    spans = brake_timeline(events)
    lines.append(f"brake engagements: {len(spans)}")
    for index, span in enumerate(spans):
        engaged = (
            f"landed t={span.engaged_at:.1f}s"
            if span.engaged_at is not None else "never landed"
        )
        if span.released_at is not None:
            released = f"released t={span.released_at:.1f}s"
        else:
            released = "still engaged at end"
        extra = (
            f", {span.cancelled_releases} cancelled release(s)"
            if span.cancelled_releases else ""
        )
        lines.append(
            f"  [{index}] {span.source} request t={span.requested_at:.1f}s, "
            f"{engaged}, {released}{extra}"
        )

    commands = cap_timeline(events)
    lines.append(f"cap commands: {len(commands)}")
    for command in commands:
        target = (
            "uncap" if command.clock_mhz is None
            else f"{command.clock_mhz:.0f} MHz"
        )
        landed = (
            f"landed t={command.landed_at:.1f}s"
            if command.landed_at is not None else "never landed"
        )
        verified = {True: "verified", False: "NOT verified", None: ""}[
            command.verified
        ]
        reissued = (
            f", {command.reissues} reissue(s)" if command.reissues else ""
        )
        suffix = f" [{verified}]" if verified else ""
        lines.append(
            f"  t={command.issued_at:7.1f}s {command.priority:>4} -> "
            f"{target:>9} (gen {command.generation}), {landed}"
            f"{reissued}{suffix}"
        )

    windows = fallback_windows(events)
    if windows:
        lines.append(f"stale-telemetry fallback windows: {len(windows)}")
        for entered, exited in windows:
            end = f"{exited:.1f}s" if exited is not None else "end of run"
            lines.append(f"  t={entered:.1f}s .. {end}")
    return lines
