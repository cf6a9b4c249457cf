"""Mission control: a dependency-free static HTML dashboard.

Every observability layer in the repo produces data that is ultimately
*looked at* — sweep curves (Figure 13), power/utilization timelines
(Figure 16/18), incident tables, attribution victim lists, kernel-timer
profiles, cache-savings counters, and the cross-run ledger. This module
renders all of them into one self-contained HTML page with inline SVG:
no JavaScript frameworks, no CSS CDNs, no matplotlib — the file opens
anywhere, ships as a CI artifact, and diffs cleanly in review because
rendering is **deterministic**: the same inputs produce byte-identical
output (no timestamps, no randomness, stable iteration orders, fixed
float formatting).

Build a page with :class:`Dashboard`:

>>> dash = Dashboard(title="polca nightly")
>>> dash.add_sweep_panel(points)            # threshold_search output
>>> dash.add_timeline_panel(result=result, events=events)
>>> dash.add_incident_panel(incidents)
>>> dash.add_victims_panel(attribution)
>>> dash.add_kernel_panel(kernel_rows)
>>> dash.add_savings_panel(ledger_entries)
>>> dash.add_ledger_panel(ledger_entries)
>>> html = dash.render()                    # or dash.write(path)

Each ``add_*`` method degrades gracefully on empty input (the panel
states what is missing instead of crashing), so one dashboard call
works for minimal traces and full mission-control runs alike.

Chart conventions: categorical series colors come from a fixed-order
validated palette (never cycled — a 9th series folds into "other");
lines are 2px on a single y axis; a legend appears for two or more
series; text is never colored by series. Values are also available as
HTML tables next to every chart, so nothing is color-alone.
"""

from __future__ import annotations

import math
from html import escape
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Dashboard",
    "PALETTE",
    "render_sparkline",
]

#: Fixed-order categorical palette (colorblind-validated: adjacent-pair
#: CVD deltas pass on the light surface below). Series take colors in
#: this order, never cycled.
PALETTE: Tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

_SURFACE = "#fcfcfb"
_INK = "#1a1a19"
_INK_MUTED = "#6e6e69"
_GRID = "#e6e6e2"

_CSS = """
body { background: %(surface)s; color: %(ink)s;
  font: 14px/1.45 system-ui, sans-serif; margin: 24px auto;
  max-width: 960px; padding: 0 16px; }
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 8px; }
p.sub { color: %(muted)s; margin: 0 0 12px; }
table { border-collapse: collapse; margin: 8px 0; width: 100%%; }
th { text-align: left; color: %(muted)s; font-weight: 500;
  border-bottom: 1px solid %(grid)s; padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid %(grid)s; padding: 4px 10px 4px 0;
  font-variant-numeric: tabular-nums; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 8px 0; }
.tile { border: 1px solid %(grid)s; border-radius: 6px;
  padding: 10px 14px; min-width: 120px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: %(muted)s; font-size: 12px; }
.legend { margin: 4px 0 0; color: %(ink)s; font-size: 12px; }
.legend span.sw { display: inline-block; width: 12px; height: 12px;
  border-radius: 3px; margin: 0 4px 0 12px; vertical-align: -1px; }
.empty { color: %(muted)s; font-style: italic; }
svg text { font: 11px system-ui, sans-serif; fill: %(muted)s; }
""" % {
    "surface": _SURFACE, "ink": _INK, "muted": _INK_MUTED, "grid": _GRID,
}


def _fmt(value: Any) -> str:
    """Deterministic compact rendering of one cell value."""
    if isinstance(value, bool) or value is None:
        return escape(str(value))
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return escape(str(value))
        return escape(f"{value:.6g}")
    return escape(str(value))


def _ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering ``[lo, hi]`` (1/2/5 steps)."""
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = magnitude * mult
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 10))
        value += step
    return ticks or [lo]


def _line_chart(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    x_label: str,
    y_label: str,
    width: int = 640,
    height: int = 240,
) -> str:
    """Inline-SVG line chart (one y axis, 2px lines, fixed palette).

    Series beyond the palette fold into the last color under an
    ``"other"`` legend entry rather than inventing hues.
    """
    named = [(label, [(float(x), float(y)) for x, y in points])
             for label, points in series if points]
    if not named:
        return '<p class="empty">no data points</p>'
    xs = [x for _, pts in named for x, _ in pts]
    ys = [y for _, pts in named for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = (y_hi - y_lo) * 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad
    left, right, top, bottom = 52, 12, 10, 32

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * (height - top - bottom)

    parts: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" '
            f'y2="{y:.2f}" stroke="{_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 3.5:.2f}" '
            f'text-anchor="end">{_fmt(float(tick))}</text>'
        )
    for tick in _ticks(x_lo, x_hi, 6):
        x = sx(tick)
        parts.append(
            f'<text x="{x:.2f}" y="{height - bottom + 16}" '
            f'text-anchor="middle">{_fmt(float(tick))}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="{_INK_MUTED}" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 4}" '
        f'text-anchor="middle">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="12" y="{(top + height - bottom) / 2:.2f}" '
        f'text-anchor="middle" transform="rotate(-90 12 '
        f'{(top + height - bottom) / 2:.2f})">{escape(y_label)}</text>'
    )
    for index, (_, points) in enumerate(named):
        color = PALETTE[min(index, len(PALETTE) - 1)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in points
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round"/>'
        )
        if len(points) <= 12:
            for x, y in points:
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" '
                    f'fill="{color}" stroke="{_SURFACE}" '
                    f'stroke-width="2"/>'
                )
    parts.append("</svg>")
    if len(named) >= 2:
        swatches = []
        for index, (label, _) in enumerate(named):
            color = PALETTE[min(index, len(PALETTE) - 1)]
            name = label if index < len(PALETTE) else f"{label} (other)"
            swatches.append(
                f'<span class="sw" style="background:{color}"></span>'
                f"{escape(name)}"
            )
        parts.append(f'<div class="legend">{"".join(swatches)}</div>')
    return "".join(parts)


def render_sparkline(
    values: Sequence[float],
    width: int = 140,
    height: int = 28,
    color: str = PALETTE[0],
) -> str:
    """A tiny inline-SVG trend line (for table cells)."""
    points = [float(v) for v in values]
    if len(points) < 2:
        return '<span class="empty">&mdash;</span>'
    lo, hi = min(points), max(points)
    if hi == lo:
        hi = lo + 1.0
    step = (width - 4) / (len(points) - 1)
    coords = " ".join(
        f"{2 + i * step:.2f},"
        f"{2 + (hi - v) / (hi - lo) * (height - 4):.2f}"
        for i, v in enumerate(points)
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img"><polyline points="{coords}" '
        f'fill="none" stroke="{color}" stroke-width="2" '
        f'stroke-linejoin="round"/></svg>'
    )


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    if not rows:
        return '<p class="empty">nothing to show</p>'
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body_rows = []
    for row in rows:
        cells = []
        for cell in row:
            # Cells that are already markup (sparklines, share bars
            # with embedded <svg>) pass through; everything else is
            # escaped data.
            if isinstance(cell, str) and "<svg" in cell:
                cells.append(f"<td>{cell}</td>")
            else:
                cells.append(f"<td>{_fmt(cell)}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")
    return f"<table><tr>{head}</tr>{''.join(body_rows)}</table>"


def _tiles(items: Sequence[Tuple[str, Any]]) -> str:
    cells = "".join(
        f'<div class="tile"><div class="v">{_fmt(value)}</div>'
        f'<div class="k">{escape(label)}</div></div>'
        for label, value in items
    )
    return f'<div class="tiles">{cells}</div>'


def _downsample(
    points: Sequence[Tuple[float, float]], limit: int = 400
) -> List[Tuple[float, float]]:
    """Deterministic stride decimation (keeps first and last points)."""
    if len(points) <= limit:
        return list(points)
    stride = -(-len(points) // limit)
    sampled = list(points[::stride])
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    return sampled


class Dashboard:
    """Accumulates panels and renders the mission-control page.

    Attributes:
        title: Page heading.
        subtitle: One line under the heading (put run identity here —
            never a wall-clock timestamp, which would break the
            byte-identical-render guarantee).
    """

    def __init__(self, title: str = "Mission control",
                 subtitle: str = "") -> None:
        self.title = title
        self.subtitle = subtitle
        self._panels: List[Tuple[str, str]] = []

    def add_panel(self, title: str, body_html: str) -> None:
        """Append a raw panel (already-rendered HTML body)."""
        self._panels.append((title, body_html))

    # ------------------------------------------------------------------
    # Figure-13-style sweep curves
    # ------------------------------------------------------------------
    def add_sweep_panel(
        self,
        points: Dict[Tuple[str, float], Any],
        metric: str = "normalized_p99",
        title: str = "Threshold sweep",
    ) -> None:
        """Sweep curves from :func:`repro.core.sweeps.threshold_search`.

        ``points`` maps ``(combo_label, added_fraction)`` to
        :class:`~repro.core.sweeps.SweepPoint`; ``metric`` is one of
        the per-priority SweepPoint dict fields (``normalized_p50``,
        ``normalized_p99``, ``normalized_throughput``). The curve
        plots the worst tier at each point (max for latency metrics,
        min for throughput), which is the SLO-relevant envelope.
        """
        if metric not in (
            "normalized_p50", "normalized_p99", "normalized_throughput",
        ):
            raise ConfigurationError(
                f"unknown sweep metric {metric!r}"
            )
        worst = min if metric == "normalized_throughput" else max
        curves: Dict[str, List[Tuple[float, float]]] = {}
        for (label, fraction), point in sorted(
            points.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            tiers = getattr(point, metric)
            if not tiers:
                continue
            curves.setdefault(label, []).append(
                (fraction * 100.0, worst(tiers.values()))
            )
        body = _line_chart(
            sorted(curves.items()),
            x_label="added servers (%)",
            y_label=metric.replace("_", " "),
        )
        rows = [
            (label, x, y)
            for label, pts in sorted(curves.items()) for x, y in pts
        ]
        body += _table(("combo", "added %", metric.replace("_", " ")),
                       rows)
        self.add_panel(title, body)

    # ------------------------------------------------------------------
    # Power / utilization timeline
    # ------------------------------------------------------------------
    def add_timeline_panel(
        self,
        result: Any = None,
        events: Optional[Sequence[Dict[str, Any]]] = None,
        title: str = "Power utilization timeline",
    ) -> None:
        """True row utilization vs the policy's observed view.

        ``result`` contributes the ground-truth ``power_series``
        (normalized by provisioned power so both series share one
        axis); ``events`` contribute the controller's observed
        utilization (``control`` events). Either side is optional.
        """
        series: List[Tuple[str, List[Tuple[float, float]]]] = []
        if result is not None and len(result.power_series.values):
            ts = result.power_series
            provisioned = result.provisioned_power_w or 1.0
            true_points = [
                (ts.start + i * ts.interval, float(v) / provisioned)
                for i, v in enumerate(ts.values)
            ]
            series.append(("true utilization",
                           _downsample(true_points)))
        if events:
            from repro.obs.analyze import utilization_points

            observed = utilization_points(events)
            if observed:
                series.append(("policy view", _downsample(observed)))
        body = _line_chart(
            series, x_label="simulation time (s)",
            y_label="row utilization",
        )
        if series:
            body += _table(
                ("series", "points", "min", "mean", "max"),
                [
                    (
                        label, len(pts),
                        min(y for _, y in pts),
                        sum(y for _, y in pts) / len(pts),
                        max(y for _, y in pts),
                    )
                    for label, pts in series
                ],
            )
        self.add_panel(title, body)


    # ------------------------------------------------------------------
    # Incidents
    # ------------------------------------------------------------------
    def add_incident_panel(
        self,
        incidents: Sequence[Any],
        title: str = "Incidents",
    ) -> None:
        """Alert-engine incidents (dicts or Incident objects)."""
        rows = []
        for item in incidents:
            get = item.get if isinstance(item, dict) \
                else lambda k, _i=item: getattr(_i, k, None)
            resolved = get("resolved_at")
            rows.append((
                get("rule"), get("severity"),
                f"{float(get('opened_at') or 0.0):.1f}s",
                "open" if resolved is None else f"{float(resolved):.1f}s",
                get("peak_value"), get("description"),
            ))
        self.add_panel(title, _table(
            ("rule", "severity", "opened", "resolved", "peak",
             "condition"),
            rows,
        ))

    # ------------------------------------------------------------------
    # Attribution: top victims
    # ------------------------------------------------------------------
    def add_victims_panel(
        self,
        report: Any,
        n: int = 10,
        title: str = "Top slowdown victims",
    ) -> None:
        """The requests that absorbed the most excess latency.

        ``report`` is an :class:`~repro.obs.attribution
        .AttributionReport`; rows come from
        :func:`~repro.obs.attribution.top_victims`.
        """
        from repro.obs.attribution import top_victims

        victims = top_victims(report, n=n) if report.requests else []
        rows = []
        for victim in victims:
            actions = sorted(
                victim.by_action_s.items(), key=lambda kv: (-kv[1], kv[0])
            )
            rows.append((
                victim.request_id, victim.priority or "?",
                victim.workload or "?",
                f"{victim.realized_s:.3f}",
                f"{float(victim.exact_excess):.3f}",
                actions[0][0] if actions else "-",
            ))
        self.add_panel(title, _table(
            ("request", "priority", "workload", "realized s",
             "excess s", "dominant cause"),
            rows,
        ))

    # ------------------------------------------------------------------
    # Kernel timers
    # ------------------------------------------------------------------
    def add_kernel_panel(
        self,
        stats: Sequence[Any],
        title: str = "Simulator kernel timers",
    ) -> None:
        """Per-event-kind handler cost (:func:`repro.exec.profile
        .kernel_stats` rows, or dicts with the same keys)."""
        rows = []
        normalized = []
        for stat in stats:
            if isinstance(stat, dict):
                kind = stat["kind"]
                calls = int(stat["calls"])
                seconds = float(stat["seconds"])
                mean_us = seconds / calls * 1e6 if calls else 0.0
            else:
                kind, calls = stat.kind, stat.calls
                seconds, mean_us = stat.seconds, stat.mean_us
            normalized.append((kind, calls, seconds, mean_us))
        total = sum(seconds for _, _, seconds, _ in normalized) or 1.0
        for kind, calls, seconds, mean_us in sorted(
            normalized, key=lambda row: (-row[2], row[0])
        ):
            share = seconds / total
            bar_w = max(1, round(share * 160))
            bar = (
                f'<svg viewBox="0 0 160 12" width="160" height="12" '
                f'role="img"><rect x="0" y="1" width="{bar_w}" '
                f'height="10" rx="3" fill="{PALETTE[0]}"/></svg>'
            )
            rows.append((
                kind, calls, f"{seconds:.4f}", f"{mean_us:.2f}",
                f"{share * 100.0:.1f}% {bar}",
            ))
        self.add_panel(title, _table(
            ("event kind", "calls", "seconds", "mean µs", "share"),
            rows,
        ))

    # ------------------------------------------------------------------
    # Cache / incremental savings
    # ------------------------------------------------------------------
    def add_savings_panel(
        self,
        entries: Sequence[Dict[str, Any]],
        title: str = "Cache and incremental savings",
    ) -> None:
        """Stat tiles computed from experiment-ledger entries."""
        runs = [e for e in entries if e.get("kind") == "run"]
        hits = [e for e in runs
                if (e.get("provenance") or {}).get("cache_hit")]
        executed = [e for e in runs
                    if not (e.get("provenance") or {}).get("cache_hit")]
        resumed = sum(
            1 for e in runs
            if (e.get("provenance") or {}).get("incremental_resumed")
        )
        reused = sum(
            1 for e in runs
            if (e.get("provenance") or {}).get("incremental_reused")
        )
        quarantined = sum(
            1 for e in runs
            if (e.get("provenance") or {}).get("quarantined")
        )
        retries = sum(
            int((e.get("provenance") or {}).get("retries") or 0)
            for e in runs
        )
        walls = [float(e.get("wall_s") or 0.0) for e in executed]
        mean_wall = sum(walls) / len(walls) if walls else 0.0
        saved = mean_wall * len(hits)
        self.add_panel(title, _tiles((
            ("ledger runs", len(runs)),
            ("executed", len(executed)),
            ("cache hits", len(hits)),
            ("est. seconds saved", round(saved, 3)),
            ("incremental resumes", resumed),
            ("incremental reuses", reused),
            ("retries", retries),
            ("quarantined", quarantined),
        )))

    # ------------------------------------------------------------------
    # Ledger history
    # ------------------------------------------------------------------
    def add_ledger_panel(
        self,
        entries: Sequence[Dict[str, Any]],
        title: str = "Run ledger history",
    ) -> None:
        """Per-configuration history with wall-time sparklines.

        Entries group by ``(policy, seed, duration)``; each row shows
        the group's run count, last wall time and energy, and a
        sparkline of wall times over the ledger's history.
        """
        groups: Dict[Tuple[str, Any, Any], List[Dict[str, Any]]] = {}
        for entry in entries:
            if entry.get("kind") != "run":
                continue
            key = (
                str(entry.get("policy")), entry.get("seed"),
                entry.get("duration_s"),
            )
            groups.setdefault(key, []).append(entry)
        rows = []
        for key in sorted(groups, key=lambda k: (k[0], str(k[1]))):
            history = groups[key]
            walls = [float(e.get("wall_s") or 0.0) for e in history]
            last = history[-1]
            metrics = last.get("metrics") or {}
            rows.append((
                key[0], key[1], len(history),
                f"{walls[-1]:.3f}",
                _fmt(metrics.get("total_energy_j")),
                metrics.get("power_brake_events"),
                f"<td>{render_sparkline(walls)}</td>",
            ))
        table_rows = []
        for row in rows:
            cells = "".join(
                cell if isinstance(cell, str) and cell.startswith("<td")
                else f"<td>{_fmt(cell)}</td>"
                for cell in row
            )
            table_rows.append(f"<tr>{cells}</tr>")
        if not rows:
            self.add_panel(title, '<p class="empty">ledger is empty</p>')
            return
        head = "".join(
            f"<th>{escape(h)}</th>"
            for h in ("policy", "seed", "runs", "last wall s",
                      "energy J", "brakes", "wall trend")
        )
        self.add_panel(
            title,
            f"<table><tr>{head}</tr>{''.join(table_rows)}</table>",
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The full page. Pure function of the added panels."""
        sections = "".join(
            f"<section><h2>{escape(title)}</h2>{body}</section>"
            for title, body in self._panels
        )
        subtitle = (
            f'<p class="sub">{escape(self.subtitle)}</p>'
            if self.subtitle else ""
        )
        return (
            "<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8">\n'
            f"<title>{escape(self.title)}</title>\n"
            f"<style>{_CSS}</style></head>\n"
            f"<body><h1>{escape(self.title)}</h1>{subtitle}"
            f"{sections}</body></html>\n"
        )

    def write(self, path: str) -> str:
        """Render to ``path``; returns the path."""
        html = self.render()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(html)
        return path
