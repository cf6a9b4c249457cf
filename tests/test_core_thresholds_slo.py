"""Threshold selection from traces, and SLO evaluation."""

import numpy as np
import pytest

from repro.analysis.timeseries import TimeSeries
from repro.cluster.metrics import ServeLogBuilder, SimulationResult
from repro.core.slo import evaluate_slos
from repro.core.thresholds import select_thresholds
from repro.errors import ConfigurationError
from repro.workloads.spec import Priority


def utilization_series(values, interval=2.0):
    return TimeSeries(start=0.0, interval=interval,
                      values=np.asarray(values, dtype=float))


class TestSelectThresholds:
    def test_t2_leaves_room_for_the_40s_spike(self):
        # A trace with a known worst 40 s rise of 0.11.
        values = [0.70] * 100 + [0.81] + [0.70] * 100
        recommendation = select_thresholds(utilization_series(values))
        assert recommendation.max_spike_40s == pytest.approx(0.11)
        assert recommendation.thresholds.t2 == pytest.approx(0.89)
        assert recommendation.thresholds.t1 == pytest.approx(0.80)

    def test_2s_spike_reported(self):
        values = [0.70, 0.70, 0.75] + [0.70] * 50
        recommendation = select_thresholds(utilization_series(values))
        assert recommendation.max_spike_2s == pytest.approx(0.05)

    def test_flat_trace_gives_high_t2(self):
        recommendation = select_thresholds(utilization_series([0.6] * 100))
        assert recommendation.thresholds.t2 >= 0.95

    def test_wild_trace_clamped(self):
        values = [0.2, 0.9] * 50
        recommendation = select_thresholds(utilization_series(values))
        assert 0.5 <= recommendation.thresholds.t2 <= 0.99

    def test_short_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            select_thresholds(utilization_series([0.5, 0.6]))


def make_result(low_lat, high_lat, brakes=0):
    log = ServeLogBuilder()
    for latency in low_lat:
        log.serve(Priority.LOW, "Summarize", latency)
    for latency in high_lat:
        log.serve(Priority.HIGH, "Search", latency)
    return SimulationResult(
        serve_log=log.build(),
        power_series=utilization_series([100.0] * 10),
        provisioned_power_w=1000.0,
        power_brake_events=brakes,
        capping_actions=0,
        duration_s=10.0,
    )


class TestEvaluateSlos:
    def test_identical_runs_meet_all_slos(self):
        baseline = make_result([10.0] * 200, [20.0] * 200)
        report = evaluate_slos(baseline, baseline)
        assert report.all_met
        assert report.p50_impact[Priority.HIGH] == pytest.approx(0.0)

    def test_hp_p50_budget_is_1pct(self):
        baseline = make_result([10.0] * 200, [20.0] * 200)
        slightly_slow = make_result([10.0] * 200, [20.3] * 200)
        report = evaluate_slos(slightly_slow, baseline)
        assert not report.meets(Priority.HIGH)  # +1.5% > 1%
        assert report.meets(Priority.LOW)

    def test_lp_p99_budget_is_50pct(self):
        baseline = make_result([10.0] * 200, [20.0] * 200)
        # Tail-only slowdown: p50 unchanged, p99 +40% -> within the 50%
        # low-priority budget.
        slow_tail = make_result([10.0] * 196 + [14.0] * 4, [20.0] * 200)
        assert evaluate_slos(slow_tail, baseline).meets(Priority.LOW)
        # p99 +60% -> breached.
        very_slow_tail = make_result([10.0] * 196 + [16.0] * 4, [20.0] * 200)
        assert not evaluate_slos(very_slow_tail, baseline).meets(Priority.LOW)

    def test_any_brake_fails(self):
        baseline = make_result([10.0] * 200, [20.0] * 200)
        braked = make_result([10.0] * 200, [20.0] * 200, brakes=1)
        report = evaluate_slos(braked, baseline)
        assert not report.brakes_ok
        assert not report.all_met
