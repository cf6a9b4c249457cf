"""Trace query engine (repro.obs.query).

Filtering, projection, aggregation, and span joins over event streams
must be deterministic (stable row order, interpolated quantiles) and
reject malformed query specifications with ``ConfigurationError`` — the
CLI maps that to its usage-error exit code.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    filter_events,
    group_aggregate,
    parse_agg,
    project,
    quantile,
    span_join,
)

EVENTS = [
    {"kind": "control", "t": 0.0, "utilization": 0.5},
    {"kind": "serve", "t": 1.0, "server": "s0", "latency_s": 2.0},
    {"kind": "serve", "t": 2.0, "server": "s1", "latency_s": 4.0},
    {"kind": "serve", "t": 3.0, "server": "s2", "latency_s": 6.0},
    {"kind": "drop", "t": 4.0, "server": "s1", "reason": "queue"},
    {"kind": "engine_run", "digest": "abc"},  # no t
]


class TestFilterEvents:
    def test_kind_filter(self):
        out = filter_events(EVENTS, kinds=["serve"])
        assert [e["t"] for e in out] == [1.0, 2.0, 3.0]

    def test_time_window_is_half_open_and_drops_untimed(self):
        out = filter_events(EVENTS, t_min=1.0, t_max=3.0)
        assert [e["t"] for e in out] == [1.0, 2.0]

    def test_server_filter(self):
        out = filter_events(EVENTS, server="s1")
        assert [e["kind"] for e in out] == ["serve", "drop"]

    def test_where_is_field_equality(self):
        out = filter_events(EVENTS, where={"reason": "queue"})
        assert [e["kind"] for e in out] == ["drop"]

    def test_empty_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            filter_events(EVENTS, kinds=[])

    def test_input_order_is_preserved(self):
        assert filter_events(EVENTS) == EVENTS


class TestProject:
    def test_keeps_only_named_fields(self):
        rows = project(EVENTS[1:3], ["t", "latency_s"])
        assert rows == [
            {"t": 1.0, "latency_s": 2.0},
            {"t": 2.0, "latency_s": 4.0},
        ]

    def test_missing_fields_stay_absent(self):
        rows = project(EVENTS[:1], ["kind", "latency_s"])
        assert rows == [{"kind": "control"}]

    def test_empty_projection_rejected(self):
        with pytest.raises(ConfigurationError):
            project(EVENTS, [])


class TestQuantile:
    def test_interpolates_linearly(self):
        assert quantile([0.0, 10.0], 0.5) == 5.0
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.75

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            quantile([1.0], 1.5)
        with pytest.raises(ConfigurationError):
            quantile([], 0.5)


class TestParseAgg:
    def test_specs(self):
        assert parse_agg("count") == ("count", None, None)
        assert parse_agg("mean:latency_s") == ("mean", "latency_s", None)
        assert parse_agg("p95:latency_s") == ("quantile", "latency_s", 0.95)

    def test_rejects_malformed(self):
        for bad in ("mean", "p95", "median:x", "p101:x", "sum:"):
            with pytest.raises(ConfigurationError):
                parse_agg(bad)


class TestGroupAggregate:
    def test_counts_per_group_sorted_by_key(self):
        rows = group_aggregate(EVENTS, by="kind")
        assert [(r["kind"], r["count"]) for r in rows] == [
            ("control", 1), ("drop", 1), ("engine_run", 1), ("serve", 3),
        ]

    def test_numeric_aggregations(self):
        rows = group_aggregate(
            EVENTS, by="kind",
            aggs=("count", "sum:latency_s", "mean:latency_s",
                  "p50:latency_s"),
        )
        serve = next(r for r in rows if r["kind"] == "serve")
        assert serve["sum:latency_s"] == 12.0
        assert serve["mean:latency_s"] == 4.0
        assert serve["p50:latency_s"] == 4.0
        control = next(r for r in rows if r["kind"] == "control")
        assert control["sum:latency_s"] is None

    def test_multi_field_group_key_sorts_deterministically(self):
        rows = group_aggregate(EVENTS, by=("kind", "server"))
        assert [(r["kind"], r["server"]) for r in rows] == [
            ("control", None), ("drop", "s1"), ("engine_run", None),
            ("serve", "s0"), ("serve", "s1"), ("serve", "s2"),
        ]

    def test_rejects_empty_specs(self):
        with pytest.raises(ConfigurationError):
            group_aggregate(EVENTS, by=[])
        with pytest.raises(ConfigurationError):
            group_aggregate(EVENTS, by="kind", aggs=())


class TestSpanJoin:
    SPANS = [
        {"kind": "brake_request", "t": 1.0, "source": "a"},
        {"kind": "brake_request", "t": 2.0, "source": "b"},
        {"kind": "brake_release", "t": 3.0, "source": "a"},
        {"kind": "brake_request", "t": 4.0, "source": "a"},
        {"kind": "brake_release", "t": 9.0, "source": "a"},
    ]

    def test_fifo_pairing_per_key(self):
        rows = span_join(
            self.SPANS, "brake_request", "brake_release", key=("source",)
        )
        assert [(r["source"], r["t_start"], r["t_end"]) for r in rows] == [
            ("a", 1.0, 3.0), ("b", 2.0, None), ("a", 4.0, 9.0),
        ]
        assert rows[0]["duration_s"] == 2.0
        assert rows[1]["duration_s"] is None

    def test_unkeyed_join_pairs_globally(self):
        rows = span_join(self.SPANS, "brake_request", "brake_release")
        assert [(r["t_start"], r["t_end"]) for r in rows] == [
            (1.0, 3.0), (2.0, 9.0), (4.0, None),
        ]

    def test_unmatched_close_is_ignored(self):
        rows = span_join(
            [{"kind": "close", "t": 1.0}], "open", "close"
        )
        assert rows == []

    def test_same_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            span_join(self.SPANS, "x", "x")
