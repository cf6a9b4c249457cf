"""Trace analysis: timeline reconstruction and trace-vs-result checks.

``cross_check`` recomputes every counter the simulator reports from the
recorded event stream — two independent code paths that must agree. The
suite runs it on clean, adversarial, churn-only, and stale-telemetry
scenarios, and proves it *detects* disagreement by tampering with a
trace.
"""

import numpy as np
import pytest

from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy
from repro.core.policy import DualThresholdPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.faults import (
    ActuationFaultSpec,
    ChurnSpec,
    FaultPlan,
    ReliabilityConfig,
    ServerChurnEvent,
    TelemetryFaultSpec,
)
from repro.obs import (
    JsonlRecorder,
    MemoryRecorder,
    attribute_run,
    brake_timeline,
    build_spans,
    cap_timeline,
    cross_check,
    fallback_windows,
    load_events,
    render_chrome_trace,
    summarize_trace,
    utilization_points,
)
from repro.workloads.requests import RequestSampler


def make_requests(rate_per_s, duration_s, seed=0):
    rng = np.random.default_rng(seed)
    sampler = RequestSampler(seed=seed)
    t, arrivals = 0.0, []
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= duration_s:
            break
        arrivals.append(t)
    return sampler.sample_many(arrivals)


def traced_run(policy=None, duration_s=240.0, rate_per_s=4.0, **overrides):
    config = ClusterConfig(n_base_servers=8, **overrides)
    recorder = MemoryRecorder()
    simulator = ClusterSimulator(
        config, policy or DualThresholdPolicy(), recorder=recorder
    )
    requests = make_requests(rate_per_s, duration_s, seed=config.seed)
    return recorder, simulator.run(requests, duration_s)


STALE_TELEMETRY = dict(
    fault_plan=FaultPlan(telemetry=TelemetryFaultSpec(
        dropout_windows=((10.0, 180.0),)
    )),
    reliability=ReliabilityConfig(
        fallback_after_ticks=3, brake_after_stale_s=10.0
    ),
)


# ----------------------------------------------------------------------
# Cross-checking: the trace re-derives the result
# ----------------------------------------------------------------------
class TestCrossCheck:
    def test_clean_run_cross_checks(self):
        recorder, result = traced_run()
        report = cross_check(recorder, result)
        assert report.ok
        report.require_ok()
        assert not report.mismatches
        assert len(report.checks) >= 20

    def test_adversarial_run_cross_checks(self):
        recorder, result = traced_run(
            seed=2, fault_plan=FaultPlan.adversarial()
        )
        cross_check(recorder, result).require_ok()

    def test_churn_run_cross_checks(self):
        plan = FaultPlan(churn=ChurnSpec(events=(
            ServerChurnEvent(server_index=0, fail_at_s=60.0,
                             recover_at_s=160.0),
            ServerChurnEvent(server_index=3, fail_at_s=90.0),
        )))
        recorder, result = traced_run(
            policy=NoCapPolicy(), fault_plan=plan, seed=5
        )
        assert result.robustness.server_failures == 2
        cross_check(recorder, result).require_ok()

    def test_stale_telemetry_run_cross_checks(self):
        recorder, result = traced_run(
            policy=NoCapPolicy(), duration_s=300.0, rate_per_s=0.5,
            **STALE_TELEMETRY,
        )
        assert result.robustness.fallback_entries == 1
        assert result.robustness.fallback_brakes == 1
        cross_check(recorder, result).require_ok()

    def test_lossy_actuation_run_cross_checks(self):
        recorder, result = traced_run(
            seed=2,
            fault_plan=FaultPlan(
                actuation=ActuationFaultSpec(silent_failure_rate=0.7),
                seed=2,
            ),
        )
        assert result.robustness.silent_actuation_failures >= 1
        assert result.robustness.reissues >= 1
        cross_check(recorder, result).require_ok()

    def test_tampered_trace_is_detected(self):
        recorder, result = traced_run(seed=2)
        events = [e for e in recorder.events if e["kind"] != "serve"][:-1]
        events += [e for e in recorder.events if e["kind"] == "serve"][:-1]
        report = cross_check(events, result)
        assert not report.ok
        names = {check.name for check in report.mismatches}
        assert "total_served" in names
        with pytest.raises(SimulationError):
            report.require_ok()
        lines = report.summary_lines()
        assert any("FAIL" in line for line in lines)

    def test_filtered_trace_fails_the_cross_check(self):
        config = ClusterConfig(n_base_servers=8)
        recorder = MemoryRecorder(kinds=["control"])
        simulator = ClusterSimulator(
            config, DualThresholdPolicy(), recorder=recorder
        )
        result = simulator.run(make_requests(4.0, 240.0), 240.0)
        assert not cross_check(recorder, result).ok

    def test_result_without_robustness_rejected(self):
        recorder, result = traced_run()
        result.robustness = None
        with pytest.raises(ConfigurationError):
            cross_check(recorder, result)


# ----------------------------------------------------------------------
# Timeline reconstruction
# ----------------------------------------------------------------------
class TestTimelines:
    def test_brake_span_from_stale_telemetry(self):
        recorder, result = traced_run(
            policy=NoCapPolicy(), duration_s=400.0, rate_per_s=0.5,
            fault_plan=FaultPlan(telemetry=TelemetryFaultSpec(
                dropout_windows=((10.0, 200.0),)
            )),
            reliability=ReliabilityConfig(
                fallback_after_ticks=3, brake_after_stale_s=10.0
            ),
        )
        spans = brake_timeline(recorder.events)
        assert len(spans) == result.power_brake_events == 1
        span = spans[0]
        assert span.source == "fallback"
        assert span.engaged_at is not None
        assert span.engaged_at >= span.requested_at
        # Telemetry returns at t=200; hysteresis releases the brake.
        assert span.released_at is not None
        assert span.engaged_duration_s > 0
        windows = fallback_windows(recorder.events)
        assert len(windows) == 1
        entered, exited = windows[0]
        assert entered < 30.0
        assert exited is not None and exited >= 200.0

    def test_cap_commands_carry_lifecycle(self):
        recorder, result = traced_run()
        commands = cap_timeline(recorder.events)
        assert len(commands) == result.capping_actions
        landed = [c for c in commands if c.landed_at is not None]
        assert landed, "expected at least one landed cap command"
        for command in landed:
            assert command.landed_at >= command.issued_at
            assert command.priority in ("low", "high")
        # Perfect actuation path: verification elided, no reissues.
        assert all(c.verified is None for c in commands)
        assert all(c.reissues == 0 for c in commands)

    def test_lossy_actuation_shows_reissues_and_verifies(self):
        recorder, result = traced_run(
            seed=2,
            fault_plan=FaultPlan(
                actuation=ActuationFaultSpec(silent_failure_rate=0.7),
                seed=2,
            ),
        )
        commands = cap_timeline(recorder.events)
        assert sum(c.reissues for c in commands) == \
            result.robustness.reissues
        assert any(c.verified is True for c in commands)

    def test_utilization_points_match_observed_series(self):
        recorder, _ = traced_run(policy=NoCapPolicy(), rate_per_s=1.0)
        points = utilization_points(recorder.events)
        assert points
        times = [t for t, _ in points]
        assert times == sorted(times)
        assert all(0.0 <= u <= 2.0 for _, u in points)

    def test_brake_timeline_cancel_release_tracked(self):
        events = [
            {"t": 0.0, "kind": "brake_request", "source": "policy",
             "version": 1},
            {"t": 5.0, "kind": "brake_land", "on": True, "version": 1},
            {"t": 70.0, "kind": "brake_release_request", "version": 2},
            {"t": 72.0, "kind": "brake_cancel_release", "version": 3},
            {"t": 140.0, "kind": "brake_release_request", "version": 4},
            {"t": 145.0, "kind": "brake_land", "on": False, "version": 4},
        ]
        spans = brake_timeline(events)
        assert len(spans) == 1
        span = spans[0]
        assert span.cancelled_releases == 1
        assert span.release_requested_at == 140.0
        assert span.released_at == 145.0


# ----------------------------------------------------------------------
# Loading and rendering
# ----------------------------------------------------------------------
class TestLoadAndSummarize:
    def test_load_events_accepts_recorder_path_and_sequence(self, tmp_path):
        recorder, result = traced_run(duration_s=120.0)
        path = str(tmp_path / "trace.jsonl")
        with JsonlRecorder(path) as sink:
            for event in recorder.events:
                sink.emit(event)
        from_recorder = load_events(recorder)
        from_path = load_events(path)
        from_list = load_events(list(recorder.events))
        assert from_recorder == from_path == from_list
        times = [e["t"] for e in from_recorder]
        assert times == sorted(times)

    def test_every_loader_accepts_a_pathlib_path(self, tmp_path):
        """A ``Path`` (what ``TraceCollector.segment_path`` returns)
        works wherever a ``str`` path does."""
        recorder, result = traced_run(duration_s=120.0)
        path = tmp_path / "trace.jsonl"
        with JsonlRecorder(str(path)) as sink:
            for event in recorder.events:
                sink.emit(event)
        assert load_events(path) == load_events(str(path))
        assert cross_check(path, result).ok
        assert summarize_trace(path) == summarize_trace(str(path))
        assert build_spans(path) == build_spans(str(path))
        assert render_chrome_trace(path) == render_chrome_trace(str(path))
        assert attribute_run(path).snapshot() \
            == attribute_run(str(path)).snapshot()

    def test_engine_events_sort_before_simulation_events(self):
        events = [
            {"t": 5.0, "kind": "serve"},
            {"kind": "engine_run", "digest": "abc"},
        ]
        ordered = load_events(events)
        assert ordered[0]["kind"] == "engine_run"

    def test_summarize_trace_renders_the_run(self):
        recorder, result = traced_run(
            policy=NoCapPolicy(), duration_s=300.0, rate_per_s=0.5,
            **STALE_TELEMETRY,
        )
        lines = summarize_trace(recorder)
        text = "\n".join(lines)
        assert "events spanning" in text
        assert "brake engagements: 1" in text
        assert "fallback" in text
        assert "cap commands:" in text

    def test_summarize_empty_trace(self):
        lines = summarize_trace([])
        assert lines[0].startswith("0 events")
        assert "brake engagements: 0" in "\n".join(lines)

    def test_summarize_engine_only_trace_has_no_time_span(self):
        lines = summarize_trace([
            {"kind": "engine_run", "digest": "abc", "wall_s": 0.5},
            {"kind": "engine_batch", "requested": 1},
        ])
        assert lines[0] == "2 events (no simulation-time events)"
        assert "engine_batch=1, engine_run=1" in lines[1]

    def test_summarize_details_brakes_caps_and_fallbacks(self):
        events = [
            {"t": 1.0, "kind": "cap_issue", "priority": "low",
             "generation": 1, "attempts": 0, "clock_mhz": 900.0},
            {"t": 3.0, "kind": "cap_land", "priority": "low",
             "generation": 1},
            {"t": 4.0, "kind": "cap_reissue", "priority": "low",
             "generation": 1},
            {"t": 5.0, "kind": "cap_verify", "priority": "low",
             "generation": 1, "ok": True},
            {"t": 10.0, "kind": "fallback_enter"},
            {"t": 20.0, "kind": "brake_request", "source": "fallback",
             "version": 1},
            {"t": 22.0, "kind": "brake_land", "on": True, "version": 1},
        ]
        text = "\n".join(summarize_trace(events))
        assert "brake engagements: 1" in text
        assert "fallback request t=20.0s" in text
        assert "still engaged at end" in text
        assert "cap commands: 1" in text
        assert "900 MHz" in text
        assert "1 reissue(s)" in text
        assert "[verified]" in text
        assert "stale-telemetry fallback windows: 1" in text
        assert "t=10.0s .. end of run" in text

    def test_summarize_uncapped_and_unlanded_commands(self):
        events = [
            {"t": 2.0, "kind": "cap_issue", "priority": "high",
             "generation": 4, "attempts": 0, "clock_mhz": None},
        ]
        text = "\n".join(summarize_trace(events))
        assert "uncap" in text
        assert "never landed" in text
