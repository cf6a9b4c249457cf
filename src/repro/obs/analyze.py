"""Turn a simulation trace into timelines and a self-validating artifact.

The trace a :class:`~repro.obs.recorder.TraceRecorder` captures is only
trustworthy if it agrees with the simulator's own accounting. This
module reconstructs the brake and cap lifecycles (the Figure 18 event
timeline) and the fallback windows from the raw event stream — one
:class:`ControlReplay`, which also feeds the span layer's causal
stamps — and
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

import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
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
    "ControlReplay",
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

    Accepts a JSONL path (``str`` or :class:`os.PathLike`), a
    :class:`~repro.obs.recorder.MemoryRecorder`, or an already-loaded
    event sequence. Events are returned sorted by ``t`` (stable, so
    same-time events keep emission order; events without ``t``, which
    only foreign JSONL carries, sort first).
    """
    if isinstance(source, (str, os.PathLike)):
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


class ControlReplay:
    """One replay of the row's brake, cap and fallback state machines.

    Fed events in stream order (other kinds are ignored), it keeps the
    history — brake engagements, cap-command lifecycles and fallback
    windows, the Figure 18 timeline — and the state at the current
    instant, from which :class:`~repro.obs.spans.SpanBuilder` stamps
    who is to blame for a reduced clock (:meth:`cause`). The simulator
    emits lifecycle events only when they take effect (superseded
    landings are filtered at the source), so the replay is direct.

    Attributes:
        brakes: Brake engagements, in request order.
        caps: Cap commands, in issue order.
    """

    def __init__(self) -> None:
        self.brakes: List[BrakeSpan] = []
        self.caps: List[CapCommand] = []
        self._brake_on = False
        # Per priority pool: (ratio, generation) of the last landed cap.
        self._cap_state: Dict[str, Tuple[float, int]] = {}
        self._open_brake: Optional[BrakeSpan] = None
        self._brake_version: Optional[int] = None
        self._brake_sources: Dict[int, str] = {}
        self._caps_by_key: Dict[Tuple[str, int], CapCommand] = {}
        self._fallback_caps: Set[Tuple[str, int]] = set()
        self._windows: List[Tuple[float, Optional[float]]] = []
        self._fallback_since: Optional[float] = None

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "ControlReplay":
        """Replay a whole event sequence."""
        replay = cls()
        for event in events:
            replay.emit(event)
        return replay

    def emit(self, event: TraceEvent) -> None:
        kind = event.get("kind")
        if kind in _CAP_KINDS:
            self._on_cap(kind, event)
        elif kind in _BRAKE_KINDS:
            self._on_brake(kind, event)
        elif kind == "fallback_enter" and self._fallback_since is None:
            self._fallback_since = float(event["t"])
        elif kind == "fallback_exit" and self._fallback_since is not None:
            self._windows.append((self._fallback_since, float(event["t"])))
            self._fallback_since = None

    def _on_brake(self, kind: str, event: TraceEvent) -> None:
        span = self._open_brake
        version = event.get("version")
        if kind == "brake_request":
            span = BrakeSpan(
                requested_at=float(event["t"]),
                source=str(event.get("source", "policy")),
            )
            self.brakes.append(span)
            self._open_brake = span
        elif kind == "brake_land":
            self._brake_on = bool(event.get("on"))
            if self._brake_on:
                if version is not None:
                    self._brake_version = int(version)
                if span is not None:
                    span.engaged_at = float(event["t"])
            elif span is not None:
                span.released_at = float(event["t"])
                self._open_brake = None
        elif span is not None and kind == "brake_release_request":
            span.release_requested_at = float(event["t"])
        elif span is not None:  # brake_cancel_release
            span.cancelled_releases += 1
            span.release_requested_at = None
        if kind in _SOURCE_KINDS and version is not None:
            # A cancelled release never disengaged: its new version
            # inherits the engagement's source.
            self._brake_sources[int(version)] = (
                self.brakes[-1].source if self.brakes else "policy"
            )

    def _on_cap(self, kind: str, event: TraceEvent) -> None:
        key = (str(event["priority"]), int(event["generation"]))
        if kind == "cap_issue":
            if int(event.get("attempts", 0)) != 0:
                return  # a reliable-command re-dispatch
            command = CapCommand(
                issued_at=float(event["t"]), priority=key[0],
                clock_mhz=event.get("clock_mhz"), generation=key[1],
            )
            self._caps_by_key[key] = command
            self.caps.append(command)
            if self._fallback_since is not None:
                self._fallback_caps.add(key)
            return
        command = self._caps_by_key.get(key)
        if kind == "cap_land":
            if command is not None and command.landed_at is None:
                command.landed_at = float(event["t"])
            ratio = event.get("ratio")
            if ratio is None and event.get("clock_mhz") is not None:
                return  # pre-span trace without the ratio field
            self._cap_state[key[0]] = (
                1.0 if ratio is None else float(ratio), key[1]
            )
        elif command is None:
            return
        elif kind == "cap_verify":
            command.verified = bool(event["ok"])
        else:  # cap_reissue
            command.reissues += 1

    def fallback_windows(self) -> List[Tuple[float, Optional[float]]]:
        """``(entered, exited)`` pairs; ``None`` exit = still inside."""
        if self._fallback_since is None:
            return list(self._windows)
        return self._windows + [(self._fallback_since, None)]

    def cause(
        self, priority: Optional[str], ratio: float
    ) -> Tuple[Optional[str], Dict[str, Any]]:
        """Who makes a server of pool ``priority`` (``None`` when
        unknown) run at ``ratio`` now: ``(cause, stamp)`` as stored on
        :class:`~repro.obs.spans.RateInterval`."""
        if ratio >= 1.0:
            return None, {}
        if self._brake_on:
            version = self._brake_version
            source = self._brake_sources.get(version, "policy")
            return "brake", {"version": version, "source": source}
        state = self._cap_state.get(priority)
        if priority is None:
            # Pool unknown (filtered trace): match the capped pool whose
            # commanded ratio equals the observed one.
            for pool, pool_state in self._cap_state.items():
                if pool_state[0] == ratio:
                    priority, state = pool, pool_state
                    break
        generation = None if state is None else state[1]
        return "cap", {
            "priority": priority,
            "generation": generation,
            "fallback": (priority, generation) in self._fallback_caps,
        }


_BRAKE_KINDS = frozenset((
    "brake_request", "brake_land", "brake_release_request",
    "brake_cancel_release",
))
_SOURCE_KINDS = frozenset(("brake_request", "brake_cancel_release"))
_CAP_KINDS = frozenset(("cap_issue", "cap_land", "cap_verify", "cap_reissue"))


def brake_timeline(events: Iterable[TraceEvent]) -> List[BrakeSpan]:
    """Brake engagements, from request to release (see
    :class:`ControlReplay`)."""
    return ControlReplay.of(events).brakes


def cap_timeline(events: Iterable[TraceEvent]) -> List[CapCommand]:
    """Cap-command lifecycles, in issue order."""
    return ControlReplay.of(events).caps


def fallback_windows(
    events: Iterable[TraceEvent],
) -> List[Tuple[float, Optional[float]]]:
    """Stale-telemetry fallback windows as ``(entered, exited)`` pairs.

    An exit of ``None`` means the run ended inside the window.
    """
    return ControlReplay.of(events).fallback_windows()


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

    replay = ControlReplay.of(events)
    spans = replay.brakes
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

    commands = replay.caps
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

    windows = replay.fallback_windows()
    if windows:
        lines.append(f"stale-telemetry fallback windows: {len(windows)}")
        for entered, exited in windows:
            end = f"{exited:.1f}s" if exited is not None else "end of run"
            lines.append(f"  t={entered:.1f}s .. {end}")
    return lines
