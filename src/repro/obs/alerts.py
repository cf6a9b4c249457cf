"""Declarative alerting over the live event stream.

The paper's operating model is an operator (human or controller) who
watches a power signal and reacts inside an actuation deadline. This
module turns that into code: a set of :class:`AlertRule`\\ s evaluated
online against the simulator's trace events by an :class:`AlertEngine`
(itself a :class:`~repro.obs.recorder.TraceRecorder`, so it attaches
anywhere a sink does — alone or teed with storage sinks).

Rule semantics follow production alerting pipelines:

* **for-duration**: a condition must hold *continuously* for ``for_s``
  simulated seconds before an incident opens (a single in-range sample
  resets the pending timer);
* **hysteresis**: an open incident resolves only when the signal falls
  to the ``clear`` threshold, which may sit below the firing threshold
  — no flapping on a signal that hovers at the line;
* **deduplication**: at most one open incident per rule; further
  breaches while open update the incident's peak instead of duplicating
  it.

Incidents carry an open → resolve lifecycle with simulation timestamps
and are JSON-round-trippable, so the simulator snapshots them into
``SimulationResult.observability["incidents"]`` and
:func:`merge_incident_snapshots` can merge them across a sweep.

Rules keep no windows of their own: a :class:`RateRule` is one
:class:`~repro.obs.stream.RollingRate` count and a
:class:`SloViolationRule` is two (all serves, violating serves), the
same aggregators :class:`~repro.obs.stream.StreamMonitor` probes use.

:func:`default_rules` encodes the situations the rest of the repo
treats as emergencies: sustained over-budget power, brake storms,
stale-telemetry fallback flapping, cap-reissue churn, and SLO
violation rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.recorder import TraceEvent, TraceRecorder
from repro.obs.stream import RollingRate

__all__ = [
    "AlertEngine",
    "AlertRule",
    "Incident",
    "RateRule",
    "SloViolationRule",
    "ThresholdRule",
    "default_rules",
    "incident_table",
    "merge_incident_snapshots",
]

#: Recognized severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass
class Incident:
    """One alert firing, from open to (possible) resolve.

    Attributes:
        rule: Name of the rule that fired.
        severity: The rule's severity.
        opened_at: Simulation time the condition completed its
            for-duration.
        breached_at: Simulation time the condition first breached (the
            start of the sustained window).
        resolved_at: When the signal cleared (``None`` while open, or
            when the run ended with the incident still open).
        trigger_value: Signal value at open time.
        peak_value: Worst signal value observed while open.
        description: The rule's human-readable condition.
    """

    rule: str
    severity: str
    opened_at: float
    breached_at: float
    trigger_value: float
    peak_value: float
    description: str = ""
    resolved_at: Optional[float] = None

    @property
    def open(self) -> bool:
        """Whether the incident has not resolved."""
        return self.resolved_at is None

    @property
    def duration_s(self) -> Optional[float]:
        """Open-to-resolve span (``None`` while open)."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.opened_at

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the snapshot/merge interchange)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "opened_at": self.opened_at,
            "breached_at": self.breached_at,
            "resolved_at": self.resolved_at,
            "trigger_value": self.trigger_value,
            "peak_value": self.peak_value,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Incident":
        """Inverse of :meth:`to_dict`."""
        return cls(
            rule=str(data["rule"]),
            severity=str(data["severity"]),
            opened_at=float(data["opened_at"]),
            breached_at=float(data["breached_at"]),
            resolved_at=(
                None if data.get("resolved_at") is None
                else float(data["resolved_at"])
            ),
            trigger_value=float(data["trigger_value"]),
            peak_value=float(data["peak_value"]),
            description=str(data.get("description", "")),
        )


class AlertRule:
    """Base class: a named, severity-tagged streaming condition.

    Subclasses set :attr:`kind` and implement :meth:`observe` (ingest
    one event of that kind) and :meth:`level` (current signal value,
    ``None`` while there is not enough data), plus
    :meth:`breached`/:meth:`cleared` threshold tests. The
    :class:`AlertEngine` routes events by kind and owns the
    pending/firing state machine so every rule gets identical
    for-duration and hysteresis semantics.

    Attributes:
        name: Unique rule name (the incident key).
        kind: The event kind the rule watches.
        severity: One of :data:`SEVERITIES`.
        for_s: How long the condition must hold before firing.
        description: Human-readable condition, shown on incidents.
    """

    kind: str = ""

    def __init__(
        self,
        name: str,
        severity: str = "warning",
        for_s: float = 0.0,
        description: str = "",
    ) -> None:
        if not name:
            raise ConfigurationError("rules need a name")
        if severity not in SEVERITIES:
            raise ConfigurationError(
                f"severity must be one of {SEVERITIES}, got {severity!r}"
            )
        if for_s < 0:
            raise ConfigurationError("for_s cannot be negative")
        self.name = name
        self.severity = severity
        self.for_s = float(for_s)
        self.description = description

    def observe(self, t: float, event: TraceEvent) -> None:
        """Ingest one event of :attr:`kind`."""
        raise NotImplementedError

    def level(self, now: float) -> Optional[float]:
        """The signal value at ``now`` (``None`` = no data yet)."""
        raise NotImplementedError

    def breached(self, value: float) -> bool:
        """Whether ``value`` violates the firing threshold."""
        raise NotImplementedError

    def cleared(self, value: float) -> bool:
        """Whether ``value`` satisfies the resolve threshold."""
        raise NotImplementedError


class ThresholdRule(AlertRule):
    """Signal-over-threshold with for-duration and hysteresis.

    Watches ``field`` of ``kind`` events; the last observed value
    persists between events (the signal is piecewise constant from the
    monitor's point of view). Fires when the value stays above
    ``above`` for ``for_s`` seconds; an open incident resolves when the
    value drops to ``clear_below`` or lower (defaults to ``above``).

    The canonical instance is sustained over-budget row power:
    ``ThresholdRule("over-budget", kind="control", field="utilization",
    above=1.0, for_s=30.0, clear_below=0.98)``.
    """

    def __init__(
        self,
        name: str,
        *,
        kind: str,
        field: str,
        above: float,
        for_s: float = 0.0,
        clear_below: Optional[float] = None,
        severity: str = "warning",
        description: str = "",
    ) -> None:
        clear = above if clear_below is None else float(clear_below)
        if clear > above:
            raise ConfigurationError(
                "clear_below must not exceed the firing threshold"
            )
        super().__init__(
            name, severity=severity, for_s=for_s,
            description=description
            or f"{kind}.{field} > {above} for {for_s:g}s",
        )
        self.kind = kind
        self.field = field
        self.above = float(above)
        self.clear_below = clear
        self._last: Optional[float] = None

    def observe(self, t: float, event: TraceEvent) -> None:
        value = event.get(self.field)
        if value is not None:
            self._last = float(value)

    def level(self, now: float) -> Optional[float]:
        return self._last

    def breached(self, value: float) -> bool:
        return value > self.above

    def cleared(self, value: float) -> bool:
        return value <= self.clear_below


class RateRule(AlertRule):
    """Too many events of one kind inside a sliding window.

    Fires when strictly more than ``max_count`` events of ``kind``
    land within ``window_s`` seconds; resolves when the windowed count
    slides back to ``clear_count`` (default ``max_count``) or fewer.
    ``for_s`` defaults to 0: the Nth event in the window is already a
    sustained condition.

    This family covers brake storms (``brake_request``), fallback
    flapping (``fallback_enter``), and cap-reissue churn
    (``cap_reissue``) — same machinery, different event kind.
    """

    def __init__(
        self,
        name: str,
        *,
        kind: str,
        window_s: float,
        max_count: int,
        clear_count: Optional[int] = None,
        for_s: float = 0.0,
        severity: str = "warning",
        description: str = "",
    ) -> None:
        self._window = RollingRate(window_s)
        if max_count < 0:
            raise ConfigurationError("max_count cannot be negative")
        clear = max_count if clear_count is None else int(clear_count)
        if clear > max_count:
            raise ConfigurationError(
                "clear_count must not exceed max_count"
            )
        super().__init__(
            name, severity=severity, for_s=for_s,
            description=description
            or f"more than {max_count} {kind} events in {window_s:g}s",
        )
        self.kind = kind
        self.window_s = float(window_s)
        self.max_count = int(max_count)
        self.clear_count = clear

    def observe(self, t: float, event: TraceEvent) -> None:
        self._window.observe(t)

    def level(self, now: float) -> Optional[float]:
        return float(self._window.count(now))

    def breached(self, value: float) -> bool:
        return value > self.max_count

    def cleared(self, value: float) -> bool:
        return value <= self.clear_count


class SloViolationRule(AlertRule):
    """Served-request SLO violation rate over a sliding window.

    Watches ``serve`` events; a request violates when its ``latency_s``
    exceeds ``slo_latency_s``. Fires when the violating fraction of the
    last ``window_s`` seconds of serves exceeds ``max_fraction`` (with
    at least ``min_samples`` serves in the window — a single slow
    request on a quiet row is not an incident); resolves at
    ``clear_fraction`` (default ``max_fraction``) or lower.
    """

    kind = "serve"

    def __init__(
        self,
        name: str,
        *,
        slo_latency_s: float,
        window_s: float,
        max_fraction: float,
        clear_fraction: Optional[float] = None,
        min_samples: int = 10,
        priority: Optional[str] = None,
        for_s: float = 0.0,
        severity: str = "warning",
        description: str = "",
    ) -> None:
        if slo_latency_s <= 0:
            raise ConfigurationError("slo_latency_s must be positive")
        # Two counts over one window: every serve, and the violating
        # ones. ``min_samples`` applies to the first.
        self._serves = RollingRate(window_s)
        self._violations = RollingRate(window_s)
        if not 0.0 <= max_fraction <= 1.0:
            raise ConfigurationError("max_fraction must be within [0, 1]")
        clear = max_fraction if clear_fraction is None \
            else float(clear_fraction)
        if clear > max_fraction:
            raise ConfigurationError(
                "clear_fraction must not exceed max_fraction"
            )
        if min_samples < 1:
            raise ConfigurationError("min_samples must be positive")
        scope = f" ({priority})" if priority else ""
        super().__init__(
            name, severity=severity, for_s=for_s,
            description=description
            or (f"more than {max_fraction:.0%} of serves{scope} over "
                f"{slo_latency_s:g}s latency in {window_s:g}s"),
        )
        self.slo_latency_s = float(slo_latency_s)
        self.window_s = float(window_s)
        self.max_fraction = float(max_fraction)
        self.clear_fraction = clear
        self.min_samples = int(min_samples)
        self.priority = priority

    def observe(self, t: float, event: TraceEvent) -> None:
        if self.priority is not None \
                and event.get("priority") != self.priority:
            return
        latency = event.get("latency_s")
        if latency is None:
            return
        self._serves.observe(t)
        if float(latency) > self.slo_latency_s:
            self._violations.observe(t)

    def level(self, now: float) -> Optional[float]:
        serves = self._serves.count(now)
        if serves < self.min_samples:
            return None
        return self._violations.count(now) / serves

    def breached(self, value: float) -> bool:
        return value > self.max_fraction

    def cleared(self, value: float) -> bool:
        return value <= self.clear_fraction


def default_rules(
    *,
    slo_latency_s: float = 60.0,
    brake_storm_window_s: float = 600.0,
    brake_storm_count: int = 2,
) -> List[AlertRule]:
    """The standing alert set for a POLCA row.

    * ``over-budget`` (critical): observed utilization above 1.0 for a
      sustained 30 s, clearing only once it falls to 0.98 — the breaker
      is being gambled with;
    * ``brake-storm`` (critical): more than ``brake_storm_count``
      brake engagements inside ``brake_storm_window_s`` — the row is
      surviving on its emergency mechanism (Figure 18's No-cap mode);
    * ``fallback-flapping`` (warning): repeated stale-telemetry
      fallback entries within 30 min — the telemetry path is sick, not
      just blipped;
    * ``cap-churn`` (warning): more than 5 cap re-issues in 10 min —
      the actuation path is eating the reliable-command budget;
    * ``slo-violations`` (warning): over 20% of served requests beyond
      ``slo_latency_s`` in a 10 min window;
    * ``trip-risk`` (critical): a protection device's thermal
      accumulator crossed its risk threshold (``trip_risk`` events from
      :mod:`repro.powerfail`) — a breaker is heating toward a trip;
      clears only when the device re-arms;
    * ``capacity-loss`` (critical): any fraction of the row's servers
      is de-energized behind a tripped breaker; clears when the last
      subtree re-energizes.
    """
    return [
        ThresholdRule(
            "over-budget", kind="control", field="utilization",
            above=1.0, for_s=30.0, clear_below=0.98, severity="critical",
        ),
        RateRule(
            "brake-storm", kind="brake_request",
            window_s=brake_storm_window_s, max_count=brake_storm_count,
            severity="critical",
        ),
        RateRule(
            "fallback-flapping", kind="fallback_enter",
            window_s=1800.0, max_count=2, severity="warning",
        ),
        RateRule(
            "cap-churn", kind="cap_reissue",
            window_s=600.0, max_count=5, severity="warning",
        ),
        SloViolationRule(
            "slo-violations", slo_latency_s=slo_latency_s,
            window_s=600.0, max_fraction=0.2, min_samples=20,
            severity="warning",
        ),
        ThresholdRule(
            "trip-risk", kind="trip_risk", field="at_risk",
            above=0.5, clear_below=0.0, severity="critical",
            description="a breaker's thermal accumulator is at risk of "
            "tripping",
        ),
        ThresholdRule(
            "capacity-loss", kind="capacity_status",
            field="offline_fraction", above=0.0, clear_below=0.0,
            severity="critical",
            description="servers are de-energized behind a tripped "
            "breaker",
        ),
    ]


@dataclass
class _RuleState:
    """Engine-side lifecycle state for one rule."""

    rule: AlertRule
    breach_since: Optional[float] = None
    incident: Optional[Incident] = None  # the open one, if any


class AlertEngine(TraceRecorder):
    """Evaluates a rule set against the event stream, live.

    Attach it like any recorder (or replay a stored trace through
    :meth:`replay`); incidents accumulate on :attr:`incidents` in open
    order. Each event reaches only the rules watching its kind, but
    every rule is stepped at every timed event (and at
    :meth:`finalize`), so windows drain and incidents open or resolve
    at event times exactly. Determinism: the engine is a pure function
    of the event stream, so replaying a recorded trace yields the
    identical incident list the live run produced.
    """

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None) -> None:
        chosen = default_rules() if rules is None else list(rules)
        names = [rule.name for rule in chosen]
        if len(set(names)) != len(names):
            raise ConfigurationError("rule names must be unique")
        self.rules: List[AlertRule] = chosen
        self.incidents: List[Incident] = []
        self._states = [_RuleState(rule) for rule in chosen]
        self._by_kind: Dict[str, List[AlertRule]] = {}
        for rule in chosen:
            self._by_kind.setdefault(rule.kind, []).append(rule)

    @property
    def open_incidents(self) -> List[Incident]:
        """Incidents that have not resolved yet."""
        return [incident for incident in self.incidents if incident.open]

    def emit(self, event: TraceEvent) -> None:
        t = event.get("t")
        if t is None:
            return  # foreign events without a simulation time
        t = float(t)
        for rule in self._by_kind.get(event.get("kind"), ()):
            rule.observe(t, event)
        for state in self._states:
            self._step(state, t)

    def _step(self, state: _RuleState, now: float) -> None:
        rule = state.rule
        value = rule.level(now)
        if value is None:
            return
        incident = state.incident
        if incident is not None:
            if value > incident.peak_value:
                incident.peak_value = value
            if rule.cleared(value):
                incident.resolved_at = now
                state.incident = None
                state.breach_since = None
            return
        if not rule.breached(value):
            state.breach_since = None  # continuity broken: timer resets
            return
        if state.breach_since is None:
            state.breach_since = now
        if now - state.breach_since >= rule.for_s:
            opened = Incident(
                rule=rule.name,
                severity=rule.severity,
                opened_at=now,
                breached_at=state.breach_since,
                trigger_value=value,
                peak_value=value,
                description=rule.description,
            )
            state.incident = opened
            self.incidents.append(opened)

    def finalize(self, t_end: float) -> None:
        """Evaluate every rule once at the end of the run.

        Sliding windows may have drained since the last event, which
        can resolve rate-based incidents; incidents whose condition
        still holds stay open (``resolved_at = None``) — a run that
        ends in trouble reports it that way.
        """
        for state in self._states:
            self._step(state, t_end)

    def replay(self, events: Iterable[TraceEvent]) -> "AlertEngine":
        """Feed a stored event stream through the engine; returns self."""
        for event in events:
            self.emit(event)
        return self

    def counts(self) -> Dict[str, Any]:
        """Summary counters (by rule and severity)."""
        return _tally(
            [incident.to_dict() for incident in self.incidents],
            [rule.name for rule in self.rules],
        )

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        """Incidents plus summary counters, JSON-serializable."""
        return {
            "incidents": [
                incident.to_dict() for incident in self.incidents
            ],
            "alerts": self.counts(),
        }


def merge_incident_snapshots(
    snapshots: Iterable[Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Merge per-run incident snapshots across a sweep.

    Accepts the dicts stored at ``SimulationResult.observability`` (or
    the engines' own snapshots); entries of ``None`` — or without an
    ``"incidents"`` key — are skipped. Incident lists concatenate in
    input order and the summary counters re-derive from the merged
    list, so the result has the same shape as a single snapshot.
    """
    incidents: List[Dict[str, Any]] = []
    for snapshot in snapshots:
        if snapshot and "incidents" in snapshot:
            incidents.extend(dict(data) for data in snapshot["incidents"])
    return {"incidents": incidents, "alerts": _tally(incidents)}


def _tally(
    incidents: Sequence[Dict[str, Any]], rules: Iterable[str] = ()
) -> Dict[str, Any]:
    """Summary counters over incident dicts; ``rules`` start at 0."""
    by_rule: Dict[str, int] = {name: 0 for name in rules}
    by_severity: Dict[str, int] = {}
    open_count = 0
    for data in incidents:
        rule = str(data["rule"])
        severity = str(data["severity"])
        by_rule[rule] = by_rule.get(rule, 0) + 1
        by_severity[severity] = by_severity.get(severity, 0) + 1
        if data.get("resolved_at") is None:
            open_count += 1
    return {
        "opened": len(incidents),
        "resolved": len(incidents) - open_count,
        "open": open_count,
        "by_rule": dict(sorted(by_rule.items())),
        "by_severity": dict(sorted(by_severity.items())),
    }


def incident_table(
    incidents: Sequence[Any],
) -> List[str]:
    """Render incidents (objects or dicts) as aligned table lines."""
    rows = []
    for item in incidents:
        incident = item if isinstance(item, Incident) \
            else Incident.from_dict(item)
        resolved = (
            "open" if incident.resolved_at is None
            else f"{incident.resolved_at:9.1f}s"
        )
        rows.append((
            incident.rule, incident.severity,
            f"{incident.opened_at:9.1f}s", resolved,
            f"{incident.peak_value:.3g}", incident.description,
        ))
    header = ("rule", "severity", "opened", "resolved", "peak",
              "condition")
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return lines
