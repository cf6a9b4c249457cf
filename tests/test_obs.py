"""The observability layer: recorders, metrics, and run parity.

The tentpole guarantee is zero overhead *and zero perturbation* when
disabled: a simulation handed the NullRecorder (or no recorder at all)
must be bit-identical — power series, energy integral, latency lists,
every counter — to the pre-observability simulator, across the
reference configurations (policies, fault plans, power scale, pool
split). Recording, in turn, must not change any result either: the
recorder only observes.
"""

import json
import math

import numpy as np
import pytest

from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy, SingleThresholdLowPriPolicy
from repro.core.policy import DualThresholdPolicy
from repro.errors import ConfigurationError
from repro.exec import SweepEngine, result_from_dict, result_to_dict
from repro.faults import FaultPlan, ReliabilityConfig, TelemetryFaultSpec
from repro.obs import (
    NULL_RECORDER,
    CsvRecorder,
    JsonlRecorder,
    MemoryRecorder,
    MetricsRegistry,
    NullRecorder,
    aggregate_snapshots,
    read_jsonl,
)
from repro.workloads.requests import RequestSampler
from repro.workloads.spec import Priority


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


#: The six reference configurations the parity guarantee is checked on:
#: policy x fault plan x oversubscription x power scale x pool split.
REFERENCE_CONFIGS = {
    "polca-default": (
        dict(n_base_servers=8, seed=0),
        DualThresholdPolicy,
    ),
    "polca-oversubscribed": (
        dict(n_base_servers=8, seed=1, added_fraction=0.30),
        DualThresholdPolicy,
    ),
    "polca-adversarial": (
        dict(n_base_servers=8, seed=2, fault_plan=FaultPlan.adversarial()),
        DualThresholdPolicy,
    ),
    "nocap-power-scaled": (
        dict(n_base_servers=8, seed=3, power_scale=1.05),
        NoCapPolicy,
    ),
    "single-thresh-lp-heavy": (
        dict(n_base_servers=8, seed=4, low_priority_fraction=0.75),
        SingleThresholdLowPriPolicy,
    ),
    "nocap-stale-telemetry": (
        dict(
            n_base_servers=8,
            seed=5,
            fault_plan=FaultPlan(telemetry=TelemetryFaultSpec(
                dropout_windows=((10.0, 180.0),)
            )),
            reliability=ReliabilityConfig(
                fallback_after_ticks=3, brake_after_stale_s=10.0
            ),
        ),
        NoCapPolicy,
    ),
}


def run_reference(name, recorder=None, duration_s=240.0, rate_per_s=4.0,
                  kernel_timers=False):
    overrides, policy_factory = REFERENCE_CONFIGS[name]
    config = ClusterConfig(**overrides)
    requests = make_requests(rate_per_s, duration_s, seed=config.seed)
    if recorder is None:
        simulator = ClusterSimulator(
            config, policy_factory(), kernel_timers=kernel_timers
        )
    else:
        simulator = ClusterSimulator(
            config, policy_factory(), recorder=recorder,
            kernel_timers=kernel_timers,
        )
    return simulator.run(requests, duration_s)


def assert_results_bit_identical(a, b):
    assert (a.power_series.values == b.power_series.values).all()
    assert a.total_energy_j == b.total_energy_j
    assert a.power_brake_events == b.power_brake_events
    assert a.capping_actions == b.capping_actions
    for priority in Priority:
        assert a.per_priority[priority].served == \
            b.per_priority[priority].served
        assert a.per_priority[priority].dropped == \
            b.per_priority[priority].dropped
        assert a.per_priority[priority].latencies == \
            b.per_priority[priority].latencies
    assert a.per_workload.keys() == b.per_workload.keys()
    ra, rb = a.robustness, b.robustness
    assert ra.commands_issued == rb.commands_issued
    assert ra.commands_verified == rb.commands_verified
    assert ra.reissues == rb.reissues
    assert ra.fallback_entries == rb.fallback_entries
    assert ra.fallback_brakes == rb.fallback_brakes
    assert ra.requests_lost_to_churn == rb.requests_lost_to_churn
    assert ra.time_at_risk_s == rb.time_at_risk_s
    assert ra.longest_overbudget_s == rb.longest_overbudget_s


# ----------------------------------------------------------------------
# Parity: disabled recording is invisible, enabled recording is inert
# ----------------------------------------------------------------------
class TestRecorderParity:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_null_recorder_bit_identical_to_bare_run(self, name):
        bare = run_reference(name)
        nulled = run_reference(name, recorder=NULL_RECORDER)
        assert_results_bit_identical(bare, nulled)
        assert bare.observability is None
        assert nulled.observability is None

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_recording_does_not_perturb_the_simulation(self, name):
        bare = run_reference(name)
        recorder = MemoryRecorder()
        traced = run_reference(name, recorder=recorder)
        assert_results_bit_identical(bare, traced)
        assert len(recorder) > 0
        assert traced.observability is not None

    def test_fresh_null_recorder_instance_is_disabled(self):
        assert NullRecorder().enabled is False
        assert NULL_RECORDER.enabled is False


# ----------------------------------------------------------------------
# Recorder sinks
# ----------------------------------------------------------------------
class TestRecorderSinks:
    def test_memory_recorder_keeps_emission_order(self):
        recorder = MemoryRecorder()
        recorder.emit({"kind": "a", "t": 1.0})
        recorder.emit({"kind": "b", "t": 0.5})
        assert [e["kind"] for e in recorder.events] == ["a", "b"]
        assert len(recorder) == 2

    def test_memory_recorder_kind_filter(self):
        recorder = MemoryRecorder(kinds=["serve"])
        recorder.emit({"kind": "serve", "t": 1.0})
        recorder.emit({"kind": "drop", "t": 2.0})
        assert [e["kind"] for e in recorder.events] == ["serve"]

    def test_empty_kind_filter_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryRecorder(kinds=[])

    def test_memory_recorder_max_events_bounds_the_buffer(self):
        recorder = MemoryRecorder(max_events=3)
        for i in range(10):
            recorder.emit({"kind": "serve", "t": float(i)})
        assert [e["t"] for e in recorder.events] == [0.0, 1.0, 2.0]
        assert recorder.dropped_events == 7

    def test_memory_recorder_bound_census_in_snapshot(self):
        recorder = MemoryRecorder(max_events=2)
        for i in range(5):
            recorder.emit({"kind": "serve", "t": float(i)})
        snapshot = recorder.observability_snapshot()
        assert snapshot["trace_buffer"] == {
            "max_events": 2,
            "recorded_events": 2,
            "dropped_events": 3,
        }

    def test_unbounded_memory_recorder_has_no_snapshot(self):
        recorder = MemoryRecorder()
        recorder.emit({"kind": "serve", "t": 1.0})
        assert recorder.observability_snapshot() is None
        assert recorder.dropped_events == 0

    def test_memory_recorder_bound_counts_only_stored_kinds(self):
        recorder = MemoryRecorder(kinds=["serve"], max_events=1)
        recorder.emit({"kind": "drop", "t": 0.0})   # filtered, not dropped
        recorder.emit({"kind": "serve", "t": 1.0})
        recorder.emit({"kind": "serve", "t": 2.0})  # over the bound
        assert len(recorder.events) == 1
        assert recorder.dropped_events == 1

    def test_memory_recorder_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            MemoryRecorder(max_events=0)

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        events = [
            {"kind": "serve", "t": 0.30000000000000004, "latency_s": 1.5},
            {"kind": "drop", "t": 2.0, "reason": "saturated"},
        ]
        with JsonlRecorder(path) as recorder:
            for event in events:
                recorder.emit(event)
            assert recorder.events_written == 2
        assert read_jsonl(path) == events

    def test_jsonl_emit_after_close_raises(self, tmp_path):
        recorder = JsonlRecorder(str(tmp_path / "t.jsonl"))
        recorder.close()
        recorder.close()  # idempotent
        with pytest.raises(ConfigurationError):
            recorder.emit({"kind": "serve"})

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "a"}\nnot json\n')
        with pytest.raises(ConfigurationError):
            read_jsonl(str(path))
        path.write_text('[1, 2]\n')
        with pytest.raises(ConfigurationError):
            read_jsonl(str(path))

    def test_csv_recorder_writes_payload_column(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        with CsvRecorder(path) as recorder:
            recorder.emit({"kind": "serve", "t": 1.0, "latency_s": 2.5})
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "t,kind,payload"
        t, kind, payload = lines[1].split(",", 2)
        assert (t, kind) == ("1.0", "serve")
        assert json.loads(payload.strip('"').replace('""', '"')) == {
            "latency_s": 2.5
        }

    def test_jsonl_survives_a_mid_run_fault(self, tmp_path):
        """A trace recorded up to an exception is still valid JSONL."""
        path = str(tmp_path / "faulted.jsonl")
        with pytest.raises(RuntimeError, match="mid-run fault"):
            with JsonlRecorder(path) as recorder:
                recorder.emit({"kind": "serve", "t": 1.0, "latency_s": 2.0})
                recorder.emit({"kind": "control", "t": 2.0,
                               "utilization": 0.9})
                raise RuntimeError("mid-run fault")
        # __exit__ flushed and closed despite the exception ...
        with pytest.raises(ConfigurationError):
            recorder.emit({"kind": "serve", "t": 3.0})
        # ... so the partial artifact parses completely.
        events = read_jsonl(path)
        assert [e["kind"] for e in events] == ["serve", "control"]
        assert events[0]["latency_s"] == 2.0

    def test_csv_survives_a_mid_run_fault(self, tmp_path):
        path = str(tmp_path / "faulted.csv")
        with pytest.raises(RuntimeError):
            with CsvRecorder(path) as recorder:
                recorder.emit({"kind": "serve", "t": 1.0, "latency_s": 2.0})
                raise RuntimeError("mid-run fault")
        import csv

        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "kind", "payload"]
        assert rows[1][:2] == ["1.0", "serve"]
        assert json.loads(rows[1][2]) == {"latency_s": 2.0}
        assert len(rows) == 2  # nothing torn after the fault

    def test_simulation_trace_streams_to_jsonl(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with JsonlRecorder(path) as recorder:
            run_reference("polca-adversarial", recorder=recorder)
        events = read_jsonl(path)
        kinds = {event["kind"] for event in events}
        assert "control" in kinds
        assert "serve" in kinds
        # JSONL floats round-trip exactly.
        memory = MemoryRecorder()
        run_reference("polca-adversarial", recorder=memory)
        assert events == memory.events


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("served").inc()
        registry.counter("served").inc(2)
        registry.gauge("peak").max(5.0)
        registry.gauge("peak").max(3.0)
        registry.histogram("util", bounds=(0.5, 1.0)).observe(0.4)
        registry.histogram("util", bounds=(0.5, 1.0)).observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["served"] == 3
        assert snapshot["gauges"]["peak"] == 5.0
        hist = snapshot["histograms"]["util"]
        assert hist["counts"] == [1, 0, 1]
        assert hist["count"] == 2
        assert hist["min"] == 0.4 and hist["max"] == 1.5

    def test_gauge_unset_state_is_explicit(self):
        from repro.obs.metrics import Gauge

        gauge = Gauge()
        assert gauge.value is None
        assert gauge.is_set is False
        gauge.set(0.0)
        assert gauge.is_set is True
        assert gauge.value == 0.0  # set-to-zero != never-set

    def test_gauge_max_seeds_from_all_negative_signals(self):
        from repro.obs.metrics import Gauge

        gauge = Gauge()
        gauge.max(-5.0)
        assert gauge.value == -5.0  # not clamped by an implicit 0.0
        gauge.max(-3.0)
        assert gauge.value == -3.0
        gauge.max(-10.0)
        assert gauge.value == -3.0

    def test_unset_gauge_appears_in_snapshot_as_none(self):
        registry = MetricsRegistry()
        registry.gauge("touched").set(0.0)
        registry.gauge("untouched")
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["touched"] == 0.0
        assert snapshot["gauges"]["untouched"] is None

    def test_aggregate_keeps_unset_gauges_without_outranking_set_ones(self):
        a = MetricsRegistry()
        a.gauge("peak")  # never written
        a.gauge("floor").max(-4.0)
        b = MetricsRegistry()
        b.gauge("peak").set(-2.0)
        b.gauge("floor")
        merged = aggregate_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["peak"] == -2.0  # the set run wins
        assert merged["gauges"]["floor"] == -4.0
        only_unset = aggregate_snapshots([a.snapshot()])
        assert only_unset["gauges"]["peak"] is None

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        with pytest.raises(ConfigurationError):
            registry.histogram("x")

    def test_histogram_bounds_must_match_on_reuse(self):
        registry = MetricsRegistry()
        registry.histogram("util", bounds=(0.5, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("util", bounds=(0.25, 1.0))

    def test_histogram_mean_and_validation(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ConfigurationError):
            Histogram(bounds=())
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(1.0, 0.5))
        hist = Histogram(bounds=(1.0,))
        assert hist.mean == 0.0
        hist.observe(0.5)
        hist.observe(1.5)
        assert hist.mean == pytest.approx(1.0)

    def test_histogram_observe_many_matches_observe(self):
        from repro.obs.metrics import Histogram

        bounds = (0.5, 1.0, 2.0)
        values = [0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 0.5, 2.0]
        batched = Histogram(bounds=bounds)
        batched.observe_many(values)
        looped = Histogram(bounds=bounds)
        for value in values:
            looped.observe(value)
        assert batched.counts == looped.counts
        assert batched.count == looped.count
        assert batched.min == looped.min
        assert batched.max == looped.max
        assert batched.total == pytest.approx(looped.total)
        # A second batch accumulates on top of the first.
        batched.observe_many([3.0])
        assert batched.count == len(values) + 1
        assert batched.counts[-1] == looped.counts[-1] + 1
        assert batched.max == 3.0

    def test_histogram_observe_many_empty_is_noop(self):
        from repro.obs.metrics import Histogram

        hist = Histogram(bounds=(1.0,))
        hist.observe_many([])
        assert hist.count == 0
        assert hist.counts == [0, 0]
        assert hist.mean == 0.0

    def test_aggregate_snapshots(self):
        a = MetricsRegistry()
        a.counter("served").inc(2)
        a.gauge("peak").set(3.0)
        a.histogram("util", bounds=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("served").inc(5)
        b.gauge("peak").set(7.0)
        b.histogram("util", bounds=(1.0,)).observe(2.0)
        merged = aggregate_snapshots([a.snapshot(), None, b.snapshot()])
        assert merged["counters"]["served"] == 7
        assert merged["gauges"]["peak"] == 7.0
        hist = merged["histograms"]["util"]
        assert hist["counts"] == [1, 1]
        assert hist["min"] == 0.5 and hist["max"] == 2.0

    def test_aggregate_rejects_mismatched_bounds(self):
        a = MetricsRegistry()
        a.histogram("util", bounds=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("util", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError):
            aggregate_snapshots([a.snapshot(), b.snapshot()])

    def test_aggregate_of_nothing_is_empty(self):
        merged = aggregate_snapshots([None, None])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# Simulator observability snapshot
# ----------------------------------------------------------------------
class TestSimulatorObservability:
    def test_snapshot_counters_match_result(self):
        recorder = MemoryRecorder()
        result = run_reference("polca-adversarial", recorder=recorder)
        counters = result.observability["counters"]
        assert counters["requests.served"] == result.total_served
        assert counters["brake.engagements"] == result.power_brake_events
        assert counters["commands.cap_actions"] == result.capping_actions
        report = result.robustness
        assert counters["commands.issued"] == report.commands_issued
        assert counters["requests.lost_to_churn"] == \
            report.requests_lost_to_churn
        assert counters["churn.failures"] == report.server_failures
        hist = result.observability["histograms"]["control.utilization"]
        assert hist["count"] > 0
        assert math.isfinite(hist["sum"])
        gauges = result.observability["gauges"]
        assert gauges["power.peak_row_w"] == result.power_series.peak()
        assert gauges["energy.total_j"] == result.total_energy_j

    def test_snapshot_survives_the_result_codec(self):
        recorder = MemoryRecorder()
        result = run_reference("polca-default", recorder=recorder)
        decoded = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert decoded.observability == result.observability

    def test_codec_preserves_absent_snapshot(self):
        result = run_reference("polca-default")
        decoded = result_from_dict(result_to_dict(result))
        assert decoded.observability is None

    def test_aggregate_across_reference_runs(self):
        snaps = []
        for name in ("polca-default", "nocap-power-scaled"):
            recorder = MemoryRecorder()
            snaps.append(
                run_reference(name, recorder=recorder).observability
            )
        merged = aggregate_snapshots(snaps)
        assert merged["counters"]["requests.served"] == sum(
            s["counters"]["requests.served"] for s in snaps
        )
        assert merged["gauges"]["power.peak_row_w"] == max(
            s["gauges"]["power.peak_row_w"] for s in snaps
        )


# ----------------------------------------------------------------------
# Engine-level recording
# ----------------------------------------------------------------------
class TestEngineRecording:
    def make_specs(self, seeds=(1, 2, 1)):
        from repro.exec import PolicySpec, RunSpec
        from repro.units import hours

        return [
            RunSpec(
                config=ClusterConfig(n_base_servers=10, seed=seed),
                policy=PolicySpec("No-cap"),
                duration_s=hours(1),
            )
            for seed in seeds
        ]

    def test_engine_emits_run_and_batch_events(self):
        recorder = MemoryRecorder()
        engine = SweepEngine(workers=1, recorder=recorder)
        specs = self.make_specs()
        engine.run_specs(specs)
        engine.run_specs(specs[:1])
        kinds = [event["kind"] for event in recorder.events]
        assert kinds.count("engine_run") == 2  # seed 1 deduped in-batch
        assert kinds.count("engine_batch") == 2
        assert kinds.count("engine_cache_hit") == 1
        run_events = [
            e for e in recorder.events if e["kind"] == "engine_run"
        ]
        digests = {spec.digest() for spec in specs}
        for event in run_events:
            assert event["digest"] in digests
            assert event["wall_s"] > 0
            assert isinstance(event["worker"], int)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["engine.simulated"] == 2
        assert counters["engine.requested"] == 4
        assert counters["engine.cache_hits"] == 2  # 1 in-batch + 1 cached
        assert counters["engine.batches"] == 2

    def test_engine_recording_results_identical_to_unrecorded(self):
        specs = self.make_specs(seeds=(1, 2))
        plain = SweepEngine(workers=1).run_specs(specs)
        recorded = SweepEngine(
            workers=1, recorder=MemoryRecorder()
        ).run_specs(specs)
        for a, b in zip(plain, recorded):
            assert a.total_energy_j == b.total_energy_j
            assert (a.power_series.values == b.power_series.values).all()

    def test_engine_emits_live_progress_events(self):
        recorder = MemoryRecorder()
        engine = SweepEngine(workers=1, recorder=recorder)
        specs = self.make_specs(seeds=(1, 2, 1))  # 2 unique + 1 dupe
        engine.run_specs(specs)
        progress = [
            e for e in recorder.events if e["kind"] == "engine_progress"
        ]
        assert [e["done"] for e in progress] == [1, 2]
        assert all(e["total"] == 2 for e in progress)
        assert all(e["cache_hits"] == 1 for e in progress)
        assert all(e["workers"] == 1 for e in progress)
        elapsed = [e["elapsed_s"] for e in progress]
        assert elapsed == sorted(elapsed)
        assert progress[-1]["eta_s"] == 0.0  # batch complete
        assert progress[0]["eta_s"] > 0.0
        gauges = engine.metrics.snapshot()["gauges"]
        assert gauges["engine.progress_done"] == 2.0

    def test_parallel_engine_emits_progress_per_completion(self):
        from repro.exec import fork_available

        if not fork_available():
            pytest.skip("platform has no fork start method")
        recorder = MemoryRecorder()
        engine = SweepEngine(workers=2, recorder=recorder)
        engine.run_specs(self.make_specs(seeds=(1, 2)))
        progress = [
            e for e in recorder.events if e["kind"] == "engine_progress"
        ]
        assert [e["done"] for e in progress] == [1, 2]
        assert all(e["workers"] == 2 for e in progress)

    def test_engine_export_metrics_textfile(self, tmp_path):
        import re

        engine = SweepEngine(workers=1, recorder=MemoryRecorder())
        engine.run_specs(self.make_specs(seeds=(1, 2)))
        path = tmp_path / "engine.prom"
        text = engine.export_metrics(
            str(path), labels={"sweep": "unit"}
        )
        assert path.read_text(encoding="utf-8") == text
        assert text.endswith("# EOF\n")
        assert ('repro_engine_engine_simulated_total{sweep="unit"} 2'
                in text)
        assert re.search(
            r'repro_engine_engine_run_wall_s_bucket'
            r'\{le="\+Inf",sweep="unit"\} 2', text
        )

    def test_parallel_engine_recording_matches_serial(self):
        from repro.exec import fork_available

        if not fork_available():
            pytest.skip("platform has no fork start method")
        specs = self.make_specs(seeds=(1, 2))
        serial_rec = MemoryRecorder()
        parallel_rec = MemoryRecorder()
        serial = SweepEngine(workers=1, recorder=serial_rec)
        parallel = SweepEngine(workers=2, recorder=parallel_rec)
        for a, b in zip(serial.run_specs(specs), parallel.run_specs(specs)):
            assert a.total_energy_j == b.total_energy_j
        assert parallel.last_stats.workers_used == 2
        workers = {
            e["worker"] for e in parallel_rec.events
            if e["kind"] == "engine_run"
        }
        assert workers  # pids of pool workers
        assert parallel.metrics.snapshot()["counters"][
            "engine.simulated"
        ] == 2


# ----------------------------------------------------------------------
# Serve-time latency histograms and span-layer parity
# ----------------------------------------------------------------------
class TestLatencyHistograms:
    def test_snapshot_has_per_priority_and_per_workload_latency(self):
        result = run_reference(
            "polca-oversubscribed", recorder=MemoryRecorder()
        )
        histograms = result.observability["histograms"]
        from repro.obs import LATENCY_BUCKETS

        for priority in Priority:
            data = histograms[f"latency.priority.{priority.value}"]
            assert data["bounds"] == list(LATENCY_BUCKETS)
            assert data["count"] == \
                result.per_priority[priority].served
            latencies = result.per_priority[priority].latencies
            assert data["sum"] == pytest.approx(sum(latencies))
            if latencies:
                assert data["min"] == min(latencies)
                assert data["max"] == max(latencies)
        workload_names = {
            name for name, metrics in result.per_workload.items()
            if metrics.served
        }
        for name in workload_names:
            data = histograms[f"latency.workload.{name}"]
            assert data["count"] == result.per_workload[name].served

    def test_latency_histograms_aggregate_across_runs(self):
        first = run_reference("polca-default", recorder=MemoryRecorder())
        second = run_reference(
            "polca-oversubscribed", recorder=MemoryRecorder()
        )
        merged = aggregate_snapshots(
            [first.observability, None, second.observability]
        )
        for priority in Priority:
            name = f"latency.priority.{priority.value}"
            merged_hist = merged["histograms"][name]
            expected = (
                first.observability["histograms"][name]["count"]
                + second.observability["histograms"][name]["count"]
            )
            assert merged_hist["count"] == expected
            assert merged_hist["counts"][-1] + sum(
                merged_hist["counts"][:-1]
            ) == expected

    def test_uninstrumented_run_has_no_histograms(self):
        result = run_reference("polca-default")
        assert result.observability is None


class TestSpanBuilderParity:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_span_recording_is_bit_identical_to_bare(self, name):
        from repro.obs import SpanBuilder

        bare = run_reference(name)
        traced = run_reference(name, recorder=SpanBuilder())
        assert_results_bit_identical(bare, traced)

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_span_recording_matches_plain_recording(self, name):
        from repro.obs import SpanBuilder, TeeRecorder

        plain = run_reference(name, recorder=MemoryRecorder())
        teed = run_reference(
            name, recorder=TeeRecorder([MemoryRecorder(), SpanBuilder()])
        )
        assert_results_bit_identical(plain, teed)
