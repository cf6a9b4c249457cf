"""Causal latency and energy attribution for recorded runs.

POLCA's claim is that oversubscription is reclaimed with "<1%
performance impact" — this module makes that claim auditable per
request. From the span trees of :mod:`repro.obs.spans` it computes, for
every served request, the *counterfactual* full-clock completion time
and decomposes the realized latency into

``queue_wait + service + cap_slowdown + brake_stall + fallback``

seconds, each slowdown attributed to the specific action (cap priority +
generation, brake version + source) that imposed it. The arithmetic is
done in :class:`fractions.Fraction` over the trace's exact floats (JSON
round-trips floats exactly), so the conservation identity

``sum(components) == realized latency`` and
``sum(slowdowns) == realized - counterfactual``

holds *exactly* — not to a tolerance — per request. A phase interval of
length ``a`` at ratio ``r`` with compute fraction ``cf`` would have
taken ``a / ((1 - cf) + cf / r)`` seconds at full clock; the remainder
is slowdown, and is non-negative because ``r <= 1``. Excess energy is
charged at the request's slot share of the server's idle power (the
power the slot kept burning during the excess seconds), using the
``run_meta`` event's ``idle_server_power_w`` / ``concurrency``.

:func:`attribute_run` produces an :class:`AttributionReport`;
:func:`top_victims` ranks the requests that paid the most, and
:func:`attribution_table` aggregates p50/p99 excess per tier, priority,
or causing action. :func:`repro.obs.analyze.cross_check` wires the
conservation identity into the trace-vs-result audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.query import quantile
from repro.obs.spans import RateInterval, RequestSpan, SpanBuilder

__all__ = [
    "COMPONENTS",
    "AttributionReport",
    "RequestAttribution",
    "attribute_run",
    "attribution_table",
    "top_victims",
]

#: The latency decomposition, in reporting order. ``queue_wait`` and
#: ``service`` make up the counterfactual; the remaining three are the
#: attributed slowdowns (excess over full clock).
COMPONENTS = (
    "queue_wait", "service", "cap_slowdown", "brake_stall", "fallback",
)

_SLOWDOWN_COMPONENTS = ("cap_slowdown", "brake_stall", "fallback")
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _classify(interval: RateInterval) -> str:
    """Which slowdown component an interval's excess belongs to."""
    if interval.cause == "brake":
        if interval.stamp.get("source") == "fallback":
            return "fallback"
        return "brake_stall"
    if interval.stamp.get("fallback"):
        return "fallback"
    return "cap_slowdown"


def _action_label(interval: RateInterval) -> str:
    """A stable identity for the action generation/version at fault."""
    if interval.cause == "brake":
        version = interval.stamp.get("version")
        source = interval.stamp.get("source", "policy")
        return f"brake v{version} ({source})"
    pool = interval.stamp.get("priority") or "?"
    generation = interval.stamp.get("generation")
    label = f"cap {pool} gen {generation}"
    if interval.stamp.get("fallback"):
        label += " [fallback]"
    return label


@dataclass
class RequestAttribution:
    """The causal latency/energy decomposition of one served request.

    Attributes:
        request_id: The request's trace id.
        priority: Priority-pool value.
        workload: Workload tier name.
        server: Serving server.
        exact: Exact (Fraction) values per component of
            :data:`COMPONENTS`; these sum to ``exact_realized``
            *exactly* on a faithful trace.
        exact_realized: Exact realized latency (completion - arrival).
        components_s: Float view of ``exact`` for reporting.
        realized_s: Float view of the realized latency.
        by_action_s: Slowdown seconds per causing action label
            (``"cap low gen 4"``, ``"brake v2 (policy)"``, ...).
        excess_energy_j: Slot-share idle energy burned during the
            excess seconds (0.0 when the trace has no ``run_meta``).
    """

    request_id: int
    priority: Optional[str]
    workload: Optional[str]
    server: Optional[str]
    exact: Dict[str, Fraction]
    exact_realized: Fraction
    by_action_s: Dict[str, float] = field(default_factory=dict)
    excess_energy_j: float = 0.0

    @property
    def realized_s(self) -> float:
        """Realized end-to-end latency in seconds."""
        return float(self.exact_realized)

    @property
    def components_s(self) -> Dict[str, float]:
        """Float view of the exact decomposition."""
        return {name: float(self.exact[name]) for name in COMPONENTS}

    @property
    def exact_counterfactual(self) -> Fraction:
        """Full-clock completion latency (queue wait held fixed)."""
        return self.exact["queue_wait"] + self.exact["service"]

    @property
    def counterfactual_s(self) -> float:
        """Float view of the counterfactual latency."""
        return float(self.exact_counterfactual)

    @property
    def exact_excess(self) -> Fraction:
        """Exact realized - counterfactual latency."""
        return self.exact_realized - self.exact_counterfactual

    @property
    def excess_s(self) -> float:
        """Seconds of slowdown this request absorbed."""
        return float(self.exact_excess)

    @property
    def conservation_error(self) -> Fraction:
        """``realized - sum(components)`` — zero on a faithful trace."""
        total = _ZERO
        for name in COMPONENTS:
            total += self.exact[name]
        return self.exact_realized - total


@dataclass
class AttributionReport:
    """Per-request attributions plus run-level aggregates.

    Attributes:
        requests: One attribution per *served* request.
        dropped: Requests dropped (routing saturation, churn, breaker
            trips, or emergency shedding).
        drops_by_cause: Drop counts keyed by the drop reason
            (``"saturated"`` / ``"churn"`` / ``"shed"`` / ``"trip"``).
        deferred: Requests the emergency shed layer deferred at least
            once before their final outcome (their defer delay shows up
            in ``queue_wait``, so conservation still holds exactly).
        unfinished: Spans still open at the end of the trace (only
            possible on truncated or filtered traces).
        latency_mismatches: Served requests whose exact realized
            latency disagrees with the serve event's ``latency_s``.
        meta: The trace's ``run_meta`` payload (may be empty).
    """

    requests: List[RequestAttribution] = field(default_factory=list)
    dropped: int = 0
    drops_by_cause: Dict[str, int] = field(default_factory=dict)
    deferred: int = 0
    unfinished: int = 0
    latency_mismatches: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def conservation_violations(self) -> List[int]:
        """Request ids whose decomposition does not sum exactly."""
        return [
            r.request_id for r in self.requests
            if r.conservation_error != 0
        ]

    def totals_s(self) -> Dict[str, float]:
        """Exact component totals across all requests, as floats."""
        totals = {name: _ZERO for name in COMPONENTS}
        for request in self.requests:
            for name in COMPONENTS:
                totals[name] += request.exact[name]
        return {name: float(value) for name, value in totals.items()}

    @property
    def total_excess_s(self) -> float:
        """Total attributed slowdown seconds across the run."""
        total = _ZERO
        for request in self.requests:
            total += request.exact_excess
        return float(total)

    @property
    def total_excess_energy_j(self) -> float:
        """Total excess energy attributed across the run."""
        return sum(r.excess_energy_j for r in self.requests)

    def by_action_s(self) -> Dict[str, float]:
        """Slowdown seconds per causing action, across all requests."""
        totals: Dict[str, float] = {}
        for request in self.requests:
            for label, seconds in request.by_action_s.items():
                totals[label] = totals.get(label, 0.0) + seconds
        return totals

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable summary for ``result.observability``."""
        return {
            "requests": len(self.requests),
            "dropped": self.dropped,
            "drops_by_cause": dict(self.drops_by_cause),
            "deferred": self.deferred,
            "unfinished": self.unfinished,
            "components_s": self.totals_s(),
            "excess_s": self.total_excess_s,
            "excess_energy_j": self.total_excess_energy_j,
            "conservation_ok": not self.conservation_violations,
            "top_victims": [
                {
                    "request_id": victim.request_id,
                    "priority": victim.priority,
                    "workload": victim.workload,
                    "excess_s": victim.excess_s,
                    "realized_s": victim.realized_s,
                }
                for victim in top_victims(self, 5)
            ],
        }


def _attribute_span(span: RequestSpan) -> RequestAttribution:
    """Decompose one served span; exact by construction."""
    arrival = Fraction(span.arrival_t)
    end = Fraction(span.end_t)
    realized = end - arrival
    components = {name: _ZERO for name in COMPONENTS}
    by_action: Dict[str, Fraction] = {}
    if span.phases:
        components["queue_wait"] = Fraction(span.phases[0].start) - arrival
    else:
        components["queue_wait"] = realized
    for phase in span.phases:
        compute_fraction = Fraction(phase.compute_fraction)
        for interval in phase.intervals:
            iv_end = interval.end if interval.end is not None else span.end_t
            actual = Fraction(iv_end) - Fraction(interval.start)
            if actual == 0:
                continue
            ratio = Fraction(interval.ratio)
            # duration_at(r) = D * ((1 - cf) + cf / r): the same work at
            # full clock takes actual / stretch — D cancels, so the
            # counterfactual needs only cf and r.
            stretch = (_ONE - compute_fraction) + compute_fraction / ratio
            ideal = actual / stretch
            components["service"] += ideal
            slowdown = actual - ideal
            if slowdown != 0:
                components[_classify(interval)] += slowdown
                label = _action_label(interval)
                by_action[label] = by_action.get(label, _ZERO) + slowdown
    return RequestAttribution(
        request_id=span.request_id,
        priority=span.priority,
        workload=span.workload,
        server=span.server,
        exact=components,
        exact_realized=realized,
        by_action_s={
            label: float(value) for label, value in by_action.items()
        },
    )


def attribute_run(source: Any) -> AttributionReport:
    """Attribute every served request of a recorded run.

    ``source`` is a JSONL path, a recorder with an ``events`` list, an
    event sequence, or an already-fed
    :class:`~repro.obs.spans.SpanBuilder`. Traces recorded before the
    span layer (no ``req_arrival`` / ``phase_start`` events) yield an
    empty report rather than failing.
    """
    builder = SpanBuilder.from_source(source)
    report = AttributionReport(meta=dict(builder.meta))
    energy_rate = 0.0
    idle_w = builder.meta.get("idle_server_power_w")
    concurrency = builder.meta.get("concurrency")
    if idle_w and concurrency:
        energy_rate = float(idle_w) / float(concurrency)
    for span in builder.build():
        if span.deferrals:
            report.deferred += 1
        if span.outcome == "dropped":
            report.dropped += 1
            cause = span.drop_reason or "?"
            report.drops_by_cause[cause] = (
                report.drops_by_cause.get(cause, 0) + 1
            )
            continue
        if span.outcome != "served" or span.end_t is None:
            report.unfinished += 1
            continue
        attribution = _attribute_span(span)
        attribution.excess_energy_j = attribution.excess_s * energy_rate
        if span.latency_s is not None \
                and float(attribution.exact_realized) != span.latency_s:
            report.latency_mismatches += 1
        report.requests.append(attribution)
    return report


def top_victims(
    report: AttributionReport, n: int = 10
) -> List[RequestAttribution]:
    """The ``n`` requests that absorbed the most slowdown seconds."""
    if n <= 0:
        raise ConfigurationError("top_victims needs n >= 1")
    ranked = sorted(
        report.requests,
        key=lambda r: (-r.exact_excess, r.request_id),
    )
    return ranked[:n]


def attribution_table(
    report: AttributionReport, by: str = "priority"
) -> List[str]:
    """Aggregate attribution lines grouped ``by`` a span dimension.

    ``by`` is ``"priority"``, ``"workload"``, or ``"action"``. The
    first two group served requests and report count, mean realized
    latency, p50/p99 excess, and the summed slowdown components; the
    ``"action"`` view reports total slowdown seconds per causing cap
    generation / brake version.

    Raises:
        ConfigurationError: On an unknown ``by`` dimension.
    """
    if by == "action":
        lines = [f"{'action':<28}{'slowdown_s':>12}"]
        for label, seconds in sorted(
            report.by_action_s().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"{label:<28}{seconds:>12.3f}")
        return lines
    if by not in ("priority", "workload"):
        raise ConfigurationError(
            f"attribution_table groups by 'priority', 'workload', or "
            f"'action', not {by!r}"
        )
    groups: Dict[str, List[RequestAttribution]] = {}
    for request in report.requests:
        key = getattr(request, by) or "?"
        groups.setdefault(key, []).append(request)
    lines = [
        f"{by:<12}{'n':>6}{'mean_lat_s':>12}{'p50_excess':>12}"
        f"{'p99_excess':>12}{'cap_s':>10}{'brake_s':>10}{'fallback_s':>12}"
    ]
    for key in sorted(groups):
        members = groups[key]
        excesses = [m.excess_s for m in members]
        mean_latency = sum(m.realized_s for m in members) / len(members)
        sums = {name: 0.0 for name in _SLOWDOWN_COMPONENTS}
        for member in members:
            for name in _SLOWDOWN_COMPONENTS:
                sums[name] += float(member.exact[name])
        lines.append(
            f"{key:<12}{len(members):>6}{mean_latency:>12.3f}"
            f"{quantile(excesses, 0.50):>12.3f}"
            f"{quantile(excesses, 0.99):>12.3f}"
            f"{sums['cap_slowdown']:>10.3f}"
            f"{sums['brake_stall']:>10.3f}"
            f"{sums['fallback']:>12.3f}"
        )
    return lines
