"""Simulation result accounting."""

import numpy as np
import pytest

from repro.analysis.timeseries import TimeSeries
from repro.cluster.metrics import (
    PriorityMetrics,
    ServeLog,
    ServeLogBuilder,
    SimulationResult,
)
from repro.errors import ConfigurationError
from repro.workloads.spec import Priority


def make_result(low_latencies, high_latencies, power, provisioned=1000.0,
                brakes=0, low_dropped=0):
    log = ServeLogBuilder()
    for latency in low_latencies:
        log.serve(Priority.LOW, "Summarize", latency)
    for latency in high_latencies:
        log.serve(Priority.HIGH, "Search", latency)
    for _ in range(low_dropped):
        log.drop(Priority.LOW, "Summarize")
    return SimulationResult(
        serve_log=log.build(),
        power_series=TimeSeries(start=0, interval=2.0,
                                values=np.asarray(power, dtype=float)),
        provisioned_power_w=provisioned,
        power_brake_events=brakes,
        capping_actions=0,
        duration_s=100.0,
    )


class TestPriorityMetrics:
    def test_served_fraction(self):
        metrics = PriorityMetrics(served=90, dropped=10)
        assert metrics.offered == 100
        assert metrics.served_fraction == pytest.approx(0.9)

    def test_served_fraction_with_no_traffic_is_one(self):
        assert PriorityMetrics().served_fraction == 1.0

    def test_summary_requires_completions(self):
        with pytest.raises(ConfigurationError):
            PriorityMetrics().summary()


class TestSimulationResult:
    def test_normalized_latencies(self):
        baseline = make_result([10.0] * 100, [20.0] * 100, [500.0] * 10)
        mine = make_result([12.0] * 100, [20.0] * 100, [600.0] * 10)
        ratios = mine.normalized_latencies(Priority.LOW, baseline)
        assert ratios["p50"] == pytest.approx(1.2)
        assert mine.normalized_latencies(Priority.HIGH, baseline)["p50"] == \
            pytest.approx(1.0)

    def test_normalized_throughput(self):
        baseline = make_result([1.0] * 10, [1.0] * 10, [1.0])
        mine = make_result([1.0] * 10, [1.0] * 10, [1.0],
                           low_dropped=10)  # 50% served
        assert mine.normalized_throughput(Priority.LOW, baseline) == \
            pytest.approx(0.5)

    def test_utilizations(self):
        result = make_result([1.0], [1.0], [500.0, 800.0], provisioned=1000.0)
        assert result.peak_utilization == pytest.approx(0.8)
        assert result.mean_utilization == pytest.approx(0.65)

    def test_max_swing_fraction(self):
        result = make_result([1.0], [1.0], [500.0, 700.0, 600.0],
                             provisioned=1000.0)
        assert result.max_swing_fraction(2.0) == pytest.approx(0.2)

    def test_brake_count_surfaces(self):
        result = make_result([1.0], [1.0], [1.0], brakes=3)
        assert result.power_brake_events == 3


def _log(*events):
    builder = ServeLogBuilder()
    for event in events:
        if len(event) == 3:
            builder.serve(*event)
        else:
            builder.drop(*event)
    return builder.build()


class TestServeLog:
    def test_views_keep_serve_order_and_first_touch(self):
        log = _log(
            (Priority.HIGH, "Chat", 3.0),
            (Priority.LOW, "Idle"),
            (Priority.LOW, "Summarize", 1.0),
            (Priority.LOW, "Chat", 2.0),
            (Priority.HIGH, "Chat", 0.5),
        )
        assert log.workloads == ("Chat", "Idle", "Summarize")
        assert log.latencies.tolist() == [3.0, 1.0, 2.0, 0.5]
        assert log.codes.dtype == np.uint8
        by_priority = log.per_priority()
        assert list(by_priority) == [Priority.LOW, Priority.HIGH]
        assert by_priority[Priority.LOW] == PriorityMetrics([1.0, 2.0], 2, 1)
        assert by_priority[Priority.HIGH] == PriorityMetrics([3.0, 0.5], 2, 0)
        assert log.per_workload() == {
            "Chat": PriorityMetrics([3.0, 2.0, 0.5], 3, 0),
            "Idle": PriorityMetrics([], 0, 1),
            "Summarize": PriorityMetrics([1.0], 1, 0),
        }

    def test_many_workloads_widen_the_codes(self):
        builder = ServeLogBuilder()
        for index in range(200):
            builder.serve(Priority.HIGH, f"w{index}", float(index))
        log = builder.build()
        assert log.codes.dtype == np.uint16
        assert log.per_workload()["w199"].latencies == [199.0]

    def test_result_views_are_read_only_and_left_out_of_pickles(self):
        import dataclasses
        import pickle

        result = make_result([1.0, 2.0], [3.0], [1.0])
        with pytest.raises(TypeError):
            result.per_priority[Priority.LOW] = PriorityMetrics()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.per_priority[Priority.LOW].dropped = 10
        assert result.total_served == 3
        assert "per_priority" in vars(result)
        clone = pickle.loads(pickle.dumps(result))
        assert "per_priority" not in vars(clone)
        assert clone.per_priority == result.per_priority

    @pytest.mark.parametrize("fields", [
        {"latencies": [1.0, 2.0], "codes": [0]},
        {"latencies": [1.0], "codes": [2], "workloads": ("Chat",),
         "dropped_by_workload": (0,)},
        {"latencies": [], "codes": [], "workloads": ("Chat", "Chat"),
         "dropped_by_workload": (0, 0)},
        {"latencies": [], "codes": [], "dropped_by_priority": (1, 0)},
        {"latencies": [], "codes": [], "workloads": ("Chat",),
         "dropped_by_priority": (-1, 1), "dropped_by_workload": (0,)},
    ], ids=["lengths", "code_range", "repeated_workload", "drop_totals",
            "negative_drops"])
    def test_inconsistent_log_rejected(self, fields):
        with pytest.raises(ConfigurationError):
            ServeLog(**fields)
