"""Smoke tests: every example script runs end to end.

The quickstart and POLCA walkthroughs simulate hours of cluster time, so
they are exercised with reduced horizons by importing their modules and
driving the cheap entry points; the fully fast scripts run as-is. The
``trace_inspect.py`` CLI additionally gets contract tests for its exit
codes (0 = fine/identical, 1 = traces diverge, 2 = usage/IO error) and
its summarize/diff modes.
"""

import importlib.util
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_SCRIPTS = [
    "characterize_inference.py",
    "training_power.py",
    "datatype_study.py",
    "phase_aware_serving.py",
    "trace_inspect.py",
    "monitor_run.py",
    "powerfail_study.py",
    "replay_study.py",
    "mission_control.py",
]


@pytest.mark.parametrize("script", FAST_SCRIPTS)
def test_fast_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_quickstart_sections_importable():
    """The quickstart's cheap sections run inline (the POLCA section is
    covered by the integration suite with a shared harness)."""
    namespace = runpy.run_path(str(EXAMPLES / "quickstart.py"))
    assert "main" in namespace


def test_polca_example_importable():
    namespace = runpy.run_path(str(EXAMPLES / "polca_oversubscription.py"))
    assert "main" in namespace


# ----------------------------------------------------------------------
# trace_inspect.py CLI contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_inspect():
    spec = importlib.util.spec_from_file_location(
        "trace_inspect", EXAMPLES / "trace_inspect.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_trace(path, events):
    path.write_text(
        "".join(json.dumps(event) + "\n" for event in events)
    )
    return str(path)


EVENTS = [
    {"kind": "control", "t": 2.0, "utilization": 0.8},
    {"kind": "serve", "t": 3.0, "latency_s": 1.0},
]


class TestTraceInspectCli:
    def test_summarize_exits_zero(self, trace_inspect, tmp_path, capsys):
        trace = write_trace(tmp_path / "a.jsonl", EVENTS)
        assert trace_inspect.main([trace]) == 0
        out = capsys.readouterr().out
        assert "2 events spanning" in out
        assert "control=1" in out and "serve=1" in out

    def test_unknown_kind_filter_yields_empty_summary(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "a.jsonl", EVENTS)
        assert trace_inspect.main([trace, "--kinds", "nonexistent"]) == 0
        assert "0 events" in capsys.readouterr().out

    def test_kind_filter_keeps_only_named_kinds(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "a.jsonl", EVENTS)
        assert trace_inspect.main([trace, "--kinds", "serve"]) == 0
        out = capsys.readouterr().out
        assert "serve=1" in out and "control" not in out

    def test_empty_trace_handled(self, trace_inspect, tmp_path, capsys):
        trace = write_trace(tmp_path / "empty.jsonl", [])
        assert trace_inspect.main([trace]) == 0
        assert "0 events" in capsys.readouterr().out

    def test_missing_file_exits_two(self, trace_inspect, tmp_path, capsys):
        code = trace_inspect.main([str(tmp_path / "nope.jsonl")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")

    def test_invalid_trace_exits_two(self, trace_inspect, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert trace_inspect.main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_identical_exits_zero(
        self, trace_inspect, tmp_path, capsys
    ):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_trace(tmp_path / "b.jsonl", EVENTS)
        assert trace_inspect.main(["diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_divergent_exits_one_and_names_the_field(
        self, trace_inspect, tmp_path, capsys
    ):
        changed = [dict(EVENTS[0]), dict(EVENTS[1], latency_s=9.0)]
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        b = write_trace(tmp_path / "b.jsonl", changed)
        assert trace_inspect.main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "first divergence at event [1]" in out
        assert "field: latency_s" in out
        assert "a.jsonl: 1.0" in out and "b.jsonl: 9.0" in out

    def test_diff_missing_file_exits_two(
        self, trace_inspect, tmp_path, capsys
    ):
        a = write_trace(tmp_path / "a.jsonl", EVENTS)
        code = trace_inspect.main(["diff", a, str(tmp_path / "no.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# trace_inspect.py trips subcommand
# ----------------------------------------------------------------------
TRIP_EVENTS = [
    {"t": 10.0, "kind": "trip_risk", "device": "row",
     "device_level": "row", "accumulator": 0.5, "overload": 1.2,
     "at_risk": 1.0},
    {"t": 12.0, "kind": "shed_engage"},
    {"t": 14.0, "kind": "shed_defer", "request_id": 3,
     "priority": "low", "workload": "Summarize", "delay_s": 20.0,
     "deferrals": 1},
    {"t": 15.0, "kind": "drop", "request_id": 4, "priority": "low",
     "workload": "Chat", "reason": "shed", "server": None},
    {"t": 30.0, "kind": "trip", "device": "row", "device_level": "row",
     "capacity_w": 5000.0, "overload": 1.25, "servers_offline": 6,
     "dropped": 2, "cascaded": False, "restore_at": 570.0,
     "offline_capacity_w": 4000.0, "offline_fraction": 1.0},
    {"t": 570.0, "kind": "reenergize", "device": "row", "step": 0,
     "servers": ["server-0", "server-1"]},
    {"t": 580.0, "kind": "shed_release"},
    {"t": 590.0, "kind": "reenergize_done", "device": "row"},
]


class TestTripsCli:
    def test_trips_renders_protection_timeline(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "trips.jsonl", TRIP_EVENTS)
        assert trace_inspect.main(["trips", trace]) == 0
        out = capsys.readouterr().out
        assert "1 trip(s), 1 deferral(s), 1 shed drop(s)" in out
        assert "TRIP row" in out
        assert "overload x1.25" in out
        assert "6 server(s) offline, 2 request(s) lost" in out
        assert "risk AT RISK: row" in out
        assert "emergency shed ENGAGED" in out
        assert "emergency shed released" in out
        assert "deferred r3 [low/Summarize] by 20s" in out

    def test_trips_unprotected_trace_exits_one(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "plain.jsonl", EVENTS)
        assert trace_inspect.main(["trips", trace]) == 1
        err = capsys.readouterr().err
        assert "no power-delivery protection events" in err

    def test_trips_missing_file_exits_two(
        self, trace_inspect, tmp_path, capsys
    ):
        code = trace_inspect.main(
            ["trips", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# trace_inspect.py spans / attrib subcommands
# ----------------------------------------------------------------------
class TestSpanAndAttribCli:
    @pytest.fixture()
    def span_trace(self, tmp_path):
        from tests.test_obs_spans import simple_request_events

        return write_trace(tmp_path / "spans.jsonl",
                           simple_request_events())

    def test_spans_renders_all_requests(
        self, trace_inspect, span_trace, capsys
    ):
        assert trace_inspect.main(["spans", span_trace]) == 0
        out = capsys.readouterr().out
        assert "request 0 [low/Chat] - served" in out
        assert "<- brake v1 (policy)" in out

    def test_spans_request_id_found(
        self, trace_inspect, span_trace, capsys
    ):
        code = trace_inspect.main(
            ["spans", span_trace, "--request-id", "0"]
        )
        assert code == 0
        assert "request 0" in capsys.readouterr().out

    def test_spans_request_id_missing_exits_one(
        self, trace_inspect, span_trace, capsys
    ):
        code = trace_inspect.main(
            ["spans", span_trace, "--request-id", "42"]
        )
        assert code == 1
        assert "no span for request 42" in capsys.readouterr().err

    def test_spans_pre_span_trace_exits_one(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "old.jsonl", EVENTS)
        assert trace_inspect.main(["spans", trace]) == 1
        assert "no span events" in capsys.readouterr().err

    def test_spans_missing_file_exits_two(
        self, trace_inspect, tmp_path, capsys
    ):
        code = trace_inspect.main(
            ["spans", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_attrib_reports_components_and_victims(
        self, trace_inspect, span_trace, capsys
    ):
        assert trace_inspect.main(["attrib", span_trace]) == 0
        out = capsys.readouterr().out
        assert "queue_wait" in out and "brake_stall" in out
        assert "conservation  exact" in out
        assert "Top 1 victims" in out
        assert "excess energy" in out

    def test_attrib_pre_span_trace_exits_one(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "old.jsonl", EVENTS)
        assert trace_inspect.main(["attrib", trace]) == 1
        assert "no span events" in capsys.readouterr().err

    def test_attrib_missing_file_exits_two(
        self, trace_inspect, tmp_path, capsys
    ):
        code = trace_inspect.main(
            ["attrib", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# trace_inspect.py ledger / report subcommands
# ----------------------------------------------------------------------
def write_ledger(path):
    """Journal two tiny engine runs into a real ledger file."""
    from repro.cluster.simulator import ClusterConfig
    from repro.exec import PolicySpec, RunSpec, SweepEngine
    from repro.obs import ExperimentLedger

    with ExperimentLedger(str(path)) as ledger:
        engine = SweepEngine(workers=1, ledger=ledger)
        spec = RunSpec(
            config=ClusterConfig(n_base_servers=4, seed=1),
            policy=PolicySpec("No-cap"),
            duration_s=3600.0,
        )
        engine.run(spec)
        engine.run(spec)  # journals a cache hit
    return str(path)


class TestLedgerCli:
    def test_ledger_prints_runs_and_flags(
        self, trace_inspect, tmp_path, capsys
    ):
        ledger = write_ledger(tmp_path / "ledger.jsonl")
        assert trace_inspect.main(["ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "2 run(s), showing last 2" in out
        assert "No-cap" in out
        assert "C cache hit" in out  # the flag legend
        lines = [ln for ln in out.splitlines() if "No-cap" in ln]
        assert len(lines) == 2
        # Executed run has no flags; the recall is marked C.
        assert " - " in lines[0] or lines[0].split()[3] == "-"
        assert " C " in lines[1]

    def test_policy_filter_without_match_exits_one(
        self, trace_inspect, tmp_path, capsys
    ):
        ledger = write_ledger(tmp_path / "ledger.jsonl")
        code = trace_inspect.main(
            ["ledger", ledger, "--policy", "POLCA"]
        )
        assert code == 1
        assert "no ledger entries" in capsys.readouterr().err

    def test_ledger_missing_file_exits_two(
        self, trace_inspect, tmp_path, capsys
    ):
        code = trace_inspect.main(
            ["ledger", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestReportCli:
    def test_report_writes_dashboard(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "a.jsonl", EVENTS)
        out_path = tmp_path / "REPORT.html"
        code = trace_inspect.main(
            ["report", trace, "--out", str(out_path)]
        )
        assert code == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        html = out_path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "Trace summary" in html

    def test_report_with_ledger_panels(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "a.jsonl", EVENTS)
        ledger = write_ledger(tmp_path / "ledger.jsonl")
        out_path = tmp_path / "REPORT.html"
        code = trace_inspect.main([
            "report", trace, "--out", str(out_path),
            "--ledger", ledger, "--title", "Study 7",
        ])
        assert code == 0
        html = out_path.read_text(encoding="utf-8")
        assert "Study 7" in html
        assert "Run ledger history" in html
        assert "Cache and incremental savings" in html

    def test_report_empty_trace_exits_one(
        self, trace_inspect, tmp_path, capsys
    ):
        trace = write_trace(tmp_path / "empty.jsonl", [])
        code = trace_inspect.main(
            ["report", trace, "--out", str(tmp_path / "r.html")]
        )
        assert code == 1
        assert "no events" in capsys.readouterr().err
        assert not (tmp_path / "r.html").exists()

    def test_report_missing_file_exits_two(
        self, trace_inspect, tmp_path, capsys
    ):
        code = trace_inspect.main(
            ["report", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQueryCli:
    QUERY_EVENTS = [
        {"kind": "control", "t": 0.0, "utilization": 0.5},
        {"kind": "serve", "t": 1.0, "server": "s0", "latency_s": 2.0},
        {"kind": "serve", "t": 2.0, "server": "s1", "latency_s": 4.0},
        {"kind": "serve", "t": 3.0, "server": "s2", "latency_s": 6.0},
        {"kind": "drop", "t": 4.0, "server": "s1", "reason": "queue"},
    ]

    def trace(self, tmp_path):
        return write_trace(tmp_path / "q.jsonl", self.QUERY_EVENTS)

    def test_filter_prints_json_lines(self, trace_inspect, tmp_path, capsys):
        code = trace_inspect.main(
            ["query", self.trace(tmp_path), "--kinds", "serve",
             "--since", "2.0"]
        )
        assert code == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [r["t"] for r in rows] == [2.0, 3.0]

    def test_group_by_aggregates(self, trace_inspect, tmp_path, capsys):
        code = trace_inspect.main(
            ["query", self.trace(tmp_path), "--group-by", "kind",
             "--agg", "count", "--agg", "mean:latency_s"]
        )
        assert code == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        serve = next(r for r in rows if r["kind"] == "serve")
        assert serve["count"] == 3
        assert serve["mean:latency_s"] == 4.0

    def test_where_clause_parses_json_values(
        self, trace_inspect, tmp_path, capsys
    ):
        code = trace_inspect.main(
            ["query", self.trace(tmp_path), "--where", "t=1.0"]
        )
        assert code == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert [r["server"] for r in rows] == ["s0"]

    def test_limit_truncates_output(self, trace_inspect, tmp_path, capsys):
        code = trace_inspect.main(
            ["query", self.trace(tmp_path), "--kinds", "serve",
             "--limit", "1"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_empty_result_set_exits_one(
        self, trace_inspect, tmp_path, capsys
    ):
        code = trace_inspect.main(
            ["query", self.trace(tmp_path), "--kinds", "nonexistent"]
        )
        assert code == 1
        assert "no matching events" in capsys.readouterr().err

    def test_invalid_query_exits_two(self, trace_inspect, tmp_path, capsys):
        trace = self.trace(tmp_path)
        assert trace_inspect.main(
            ["query", trace, "--group-by", "kind", "--agg", "median:x"]
        ) == 2
        assert trace_inspect.main(
            ["query", trace, "--agg", "count"]
        ) == 2  # --agg without --group-by
        assert trace_inspect.main(
            ["query", trace, "--where", "noequalsign"]
        ) == 2

    def test_missing_file_exits_two(self, trace_inspect, tmp_path, capsys):
        code = trace_inspect.main(
            ["query", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
