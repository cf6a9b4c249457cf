"""The mission-control dashboard: deterministic static HTML.

The acceptance bar: rendering the same panels twice produces
byte-identical HTML (no timestamps, no dict-order dependence, no
randomness), with zero runtime dependencies — every chart is inline
SVG, every chart ships an adjacent data table, and identity is never
color-alone (legends for >= 2 series).
"""

from dataclasses import dataclass, field
from typing import Dict

import pytest

from repro.errors import ConfigurationError
from repro.obs import PALETTE, Dashboard, render_sparkline
from repro.obs.dashboard import _downsample, _fmt, _line_chart, _ticks


@dataclass
class FakePoint:
    """Duck-typed SweepPoint: per-tier metric dicts."""

    normalized_p99: Dict[str, float] = field(default_factory=dict)
    normalized_p50: Dict[str, float] = field(default_factory=dict)
    normalized_throughput: Dict[str, float] = field(default_factory=dict)


def sweep_points():
    return {
        (combo, fraction): FakePoint(
            normalized_p99={"high": 1.0 + fraction, "low": 1.5 + i},
            normalized_throughput={"high": 1.0, "low": 0.9 - fraction},
        )
        for i, combo in enumerate(("75-85", "80-89"))
        for fraction in (0.1, 0.2, 0.3)
    }


def ledger_entries():
    return [
        {
            "kind": "run", "policy": "POLCA", "seed": 1,
            "duration_s": 3600.0, "wall_s": 0.5 + 0.01 * i,
            "provenance": {
                "cache_hit": i >= 2, "incremental_resumed": False,
                "incremental_reused": False, "retries": 0,
                "quarantined": False,
            },
            "metrics": {"total_energy_j": 1.25e7,
                        "power_brake_events": 3},
        }
        for i in range(4)
    ]


def full_dashboard():
    dash = Dashboard(title="POLCA mission control",
                     subtitle="test fixture")
    dash.add_sweep_panel(sweep_points())
    dash.add_incident_panel([{
        "rule": "brake-storm", "severity": "critical",
        "opened_at": 10.0, "resolved_at": 60.0,
        "peak_value": 12, "description": "brakes > 5 within 60s",
    }])
    dash.add_kernel_panel([
        {"kind": "serve", "calls": 100, "seconds": 0.2},
        {"kind": "tick", "calls": 400, "seconds": 0.1},
    ])
    entries = ledger_entries()
    dash.add_savings_panel(entries)
    dash.add_ledger_panel(entries)
    return dash


# ----------------------------------------------------------------------
# The acceptance bar: byte-identical rendering
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_repeated_render_is_byte_identical(self):
        dash = full_dashboard()
        assert dash.render() == dash.render()

    def test_two_identically_built_dashboards_agree(self):
        assert full_dashboard().render() == full_dashboard().render()

    def test_no_timestamps_anywhere(self):
        html = full_dashboard().render()
        assert "2026" not in html  # no wall-clock leakage
        assert "date" not in html.lower()

    def test_write_round_trips(self, tmp_path):
        dash = full_dashboard()
        path = str(tmp_path / "report.html")
        assert dash.write(path) == path
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == dash.render()


# ----------------------------------------------------------------------
# Page structure
# ----------------------------------------------------------------------
class TestPage:
    def test_panels_render_in_insertion_order(self):
        html = full_dashboard().render()
        assert html.startswith("<!DOCTYPE html>")
        assert html.count("<section>") == 5
        assert html.index("Threshold sweep") < html.index("Incidents") \
            < html.index("Simulator kernel timers") \
            < html.index("Cache and incremental savings") \
            < html.index("Run ledger history")

    def test_title_and_subtitle_escaped(self):
        dash = Dashboard(title="<script>alert(1)</script>",
                         subtitle="a & b")
        html = dash.render()
        assert "<script>" not in html
        assert "&lt;script&gt;" in html
        assert "a &amp; b" in html

    def test_no_external_resources(self):
        html = full_dashboard().render()
        for marker in ("http://", "https://", "<img", "<link",
                       "src=", "@import"):
            assert marker not in html

    def test_raw_panel_title_escaped_body_trusted(self):
        dash = Dashboard()
        dash.add_panel("a <b> title", "<p>body</p>")
        html = dash.render()
        assert "a &lt;b&gt; title" in html
        assert "<p>body</p>" in html


# ----------------------------------------------------------------------
# Sweep panel
# ----------------------------------------------------------------------
class TestSweepPanel:
    def test_curves_legend_and_table(self):
        dash = Dashboard()
        dash.add_sweep_panel(sweep_points())
        html = dash.render()
        assert html.count("<polyline") == 2  # one curve per combo
        assert 'class="legend"' in html  # >= 2 series -> legend
        assert "<table>" in html  # chart always ships its data table
        assert "75-85" in html and "80-89" in html

    def test_worst_tier_envelope(self):
        """p99 plots the max across tiers; throughput plots the min."""
        points = {("c", 0.1): FakePoint(
            normalized_p99={"high": 1.0, "low": 2.5},
            normalized_throughput={"high": 1.0, "low": 0.7},
        )}
        dash = Dashboard()
        dash.add_sweep_panel(points)
        assert "2.5" in dash.render()
        dash = Dashboard()
        dash.add_sweep_panel(points, metric="normalized_throughput")
        assert "0.7" in dash.render()

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            Dashboard().add_sweep_panel(sweep_points(), metric="p99")

    def test_empty_points_degrade_gracefully(self):
        dash = Dashboard()
        dash.add_sweep_panel({})
        assert "no data points" in dash.render()

    def test_single_series_has_no_legend(self):
        dash = Dashboard()
        dash.add_sweep_panel({
            (combo, fraction): point
            for (combo, fraction), point in sweep_points().items()
            if combo == "75-85"
        })
        assert 'class="legend"' not in dash.render()


# ----------------------------------------------------------------------
# Tables, tiles, and the other panels
# ----------------------------------------------------------------------
class TestPanels:
    def test_incident_descriptions_escaped(self):
        dash = Dashboard()
        dash.add_incident_panel([{
            "rule": "x", "severity": "warn", "opened_at": 1.0,
            "resolved_at": None, "peak_value": 1,
            "description": "<img src=x onerror=alert(1)>",
        }])
        html = dash.render()
        assert "<img" not in html
        assert "&lt;img" in html
        assert "open" in html  # unresolved incidents say so

    def test_incident_objects_work_like_dicts(self):
        class Incident:
            rule = "brake-storm"
            severity = "critical"
            opened_at = 5.0
            resolved_at = 9.0
            peak_value = 7
            description = "d"

        dash = Dashboard()
        dash.add_incident_panel([Incident()])
        html = dash.render()
        assert "brake-storm" in html
        assert "9.0s" in html

    def test_empty_incidents_degrade(self):
        dash = Dashboard()
        dash.add_incident_panel([])
        assert "nothing to show" in dash.render()

    def test_kernel_panel_sorts_by_cost_with_share_bars(self):
        dash = Dashboard()
        dash.add_kernel_panel([
            {"kind": "tick", "calls": 400, "seconds": 0.1},
            {"kind": "serve", "calls": 100, "seconds": 0.3},
        ])
        html = dash.render()
        assert html.index("serve") < html.index("tick")
        assert "75.0%" in html and "25.0%" in html
        assert "<rect" in html

    def test_savings_tiles_account_for_provenance(self):
        dash = Dashboard()
        dash.add_savings_panel(ledger_entries())
        html = dash.render()
        assert "cache hits" in html
        assert "est. seconds saved" in html
        # 2 executed (mean 0.505 s) x 2 hits = 1.01 s saved.
        assert "1.01" in html

    def test_ledger_panel_groups_and_sparkline(self):
        dash = Dashboard()
        dash.add_ledger_panel(ledger_entries())
        html = dash.render()
        assert "POLCA" in html
        assert html.count("<tr>") == 2  # header + one group
        assert "<polyline" in html  # the wall-time sparkline

    def test_empty_ledger_degrades(self):
        dash = Dashboard()
        dash.add_ledger_panel([])
        dash.add_savings_panel([])
        html = dash.render()
        assert "ledger is empty" in html


# ----------------------------------------------------------------------
# Chart primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_palette_is_fixed_order_hex(self):
        assert len(PALETTE) == 8
        assert len(set(PALETTE)) == 8
        assert all(c.startswith("#") and len(c) == 7 for c in PALETTE)

    def test_series_beyond_palette_fold_to_other(self):
        series = [
            (f"s{i}", [(0.0, float(i)), (1.0, float(i))])
            for i in range(len(PALETTE) + 2)
        ]
        html = _line_chart(series, "x", "y")
        assert "s9 (other)" in html
        # No invented hues: every stroke comes from the palette.
        assert html.count(f'stroke="{PALETTE[-1]}"') >= 3

    def test_markers_only_on_sparse_series(self):
        sparse = _line_chart([("a", [(float(i), 0.0)
                                     for i in range(5)])], "x", "y")
        dense = _line_chart([("a", [(float(i), 0.0)
                                    for i in range(50)])], "x", "y")
        assert "<circle" in sparse
        assert "<circle" not in dense

    def test_flat_series_still_renders(self):
        html = _line_chart([("a", [(0.0, 1.0), (1.0, 1.0)])], "x", "y")
        assert "<polyline" in html

    def test_sparkline_needs_two_points(self):
        assert "&mdash;" in render_sparkline([])
        assert "&mdash;" in render_sparkline([1.0])
        assert "<svg" in render_sparkline([1.0, 2.0, 1.5])

    def test_downsample_keeps_endpoints_under_limit(self):
        points = [(float(i), float(i)) for i in range(1000)]
        sampled = _downsample(points, limit=100)
        assert len(sampled) <= 102
        assert sampled[0] == points[0]
        assert sampled[-1] == points[-1]
        assert _downsample(points[:50], limit=100) == points[:50]

    def test_fmt_is_compact_and_safe(self):
        assert _fmt(0.30000000000000004) == "0.3"
        assert _fmt(1.25e7) == "1.25e+07"
        assert _fmt(None) == "None"
        assert _fmt(True) == "True"
        assert _fmt("<td>") == "&lt;td&gt;"
        assert _fmt(float("nan")) == "nan"

    def test_ticks_cover_the_span_in_round_steps(self):
        ticks = _ticks(0.0, 1.0)
        assert ticks[0] >= 0.0 and ticks[-1] <= 1.0
        assert len(ticks) >= 3
        assert _ticks(5.0, 5.0) == [5.0]
