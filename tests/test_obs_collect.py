"""Per-run trace collection (repro.obs.collect).

The acceptance bar: engine-collected segments (serial, pool,
incremental) equal direct recordings, a resumed incremental run records
the same stream as a cold run, and sampling keeps a deterministic exact
subsequence with a census that accounts for every dropped event.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.exec import (
    PolicySpec,
    RunSpec,
    SweepEngine,
    execute_spec,
    fork_available,
)
from repro.exec.cache import RunCache
from repro.exec.incremental import IncrementalExecutor
from repro.obs import (
    MemoryRecorder,
    RollupRecorder,
    SamplingRecorder,
    TraceCollector,
    hash_fraction,
)
from repro.units import hours

from .test_exec_incremental import REFERENCE_POLICIES, reference_spec
from .test_obs import assert_results_bit_identical

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork start method"
)


def lines(events):
    """The byte-comparison canonical form of an event stream."""
    return [json.dumps(event, sort_keys=True) for event in events]


# ----------------------------------------------------------------------
# Incremental recording parity
# ----------------------------------------------------------------------
class TestIncrementalRecording:
    def cold_trace(self, spec):
        recorder = MemoryRecorder()
        result = execute_spec(spec, recorder=recorder)
        return result, recorder.events

    def test_resumed_run_records_the_cold_trace(self):
        base_policy, variant_policy = \
            REFERENCE_POLICIES["polca-oversubscribed"]
        base_spec = reference_spec("polca-oversubscribed", base_policy)
        variant_spec = reference_spec(
            "polca-oversubscribed", variant_policy
        )
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        base_recorder = MemoryRecorder()
        executor.execute(base_spec, recorder=base_recorder)
        recorder = MemoryRecorder()
        resumed = executor.execute(variant_spec, recorder=recorder)
        assert executor.stats.resumed_runs == 1
        cold_result, cold_events = self.cold_trace(variant_spec)
        assert lines(recorder.events) == lines(cold_events)
        assert_results_bit_identical(resumed, cold_result)
        assert resumed.observability == cold_result.observability

    def test_base_run_records_the_cold_trace(self):
        spec = reference_spec("polca-default", PolicySpec("POLCA"))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        recorder = MemoryRecorder()
        executor.execute(spec, recorder=recorder)
        _, cold_events = self.cold_trace(spec)
        assert lines(recorder.events) == lines(cold_events)

    def test_full_tape_reuse_replays_the_family_trace(self):
        from repro.core.policy import PolcaThresholds

        base_spec = reference_spec("polca-default", PolicySpec("POLCA"))
        # A distinct digest whose controller never decides differently
        # on this trace: the whole family tape matches, so the result
        # is reused and the trace must replay from the tape.
        variant_spec = reference_spec(
            "polca-default",
            PolicySpec("POLCA", PolcaThresholds(t2=0.90)),
        )
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        base = executor.execute(base_spec, recorder=MemoryRecorder())
        executor.cache.put(base_spec.digest(), base)
        recorder = MemoryRecorder()
        executor.execute(variant_spec, recorder=recorder)
        assert executor.stats.reused_results == 1
        _, cold_events = self.cold_trace(base_spec)
        assert lines(recorder.events) == lines(cold_events)

    def test_unrecorded_family_is_rerecorded_for_a_recorded_variant(self):
        # The family tape was laid down without a recorder, so it holds
        # no events; asking for a recorded variant must not silently
        # return an empty trace.
        spec = reference_spec("polca-default", PolicySpec("POLCA"))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(spec)
        recorder = MemoryRecorder()
        executor.execute(spec, recorder=recorder)
        _, cold_events = self.cold_trace(spec)
        assert lines(recorder.events) == lines(cold_events)


# ----------------------------------------------------------------------
# Overhead-bounded recording: sampling + rollups
# ----------------------------------------------------------------------
EVENT_KINDS = ("serve", "control", "phase_start", "drop")

event_strategy = st.fixed_dictionaries({
    "kind": st.sampled_from(EVENT_KINDS),
    "t": st.floats(
        min_value=0.0, max_value=1e4,
        allow_nan=False, allow_infinity=False,
    ),
    "value": st.integers(min_value=0, max_value=10),
})


class TestSampling:
    @settings(max_examples=50, deadline=None)
    @given(
        events=st.lists(event_strategy, max_size=60),
        rates=st.dictionaries(
            st.sampled_from(EVENT_KINDS),
            st.floats(min_value=0.0, max_value=1.0),
            max_size=len(EVENT_KINDS),
        ),
    )
    def test_sampled_is_a_subsequence_with_exact_census(
        self, events, rates
    ):
        inner = MemoryRecorder()
        recorder = SamplingRecorder(inner, rates=rates)
        for event in events:
            recorder.emit(event)
        sampled = lines(inner.events)
        full = lines(events)
        # exact subsequence: every kept line appears in order
        iterator = iter(full)
        assert all(line in iterator for line in sampled)
        assert recorder.kept == len(inner.events)
        assert recorder.kept + recorder.dropped == len(events)
        census = recorder.observability_snapshot()["trace_sampling"]
        assert census["kept"] == recorder.kept
        assert census["dropped"] == sum(
            census["dropped_by_kind"].values()
        )

    def test_keep_decision_is_a_pure_function_of_the_event(self):
        events = [
            {"kind": "serve", "t": float(i), "value": i}
            for i in range(200)
        ]
        first = MemoryRecorder()
        a = SamplingRecorder(first, {"serve": 0.5})
        for event in events:
            a.emit(event)
        second = MemoryRecorder()
        b = SamplingRecorder(second, {"serve": 0.5})
        for event in reversed(events):
            b.emit(event)
        assert sorted(lines(first.events)) == sorted(lines(second.events))
        assert 0 < len(first.events) < len(events)

    def test_rate_one_keeps_everything(self):
        inner = MemoryRecorder()
        recorder = SamplingRecorder(inner)
        for i in range(50):
            recorder.emit({"kind": "serve", "t": float(i)})
        assert len(inner.events) == 50
        assert recorder.dropped == 0

    def test_rate_zero_drops_everything_counted(self):
        inner = MemoryRecorder()
        recorder = SamplingRecorder(inner, default_rate=0.0)
        for i in range(50):
            recorder.emit({"kind": "serve", "t": float(i)})
        assert inner.events == []
        assert recorder.dropped_by_kind == {"serve": 50}

    def test_hash_fraction_is_deterministic_and_bounded(self):
        event = {"kind": "serve", "t": 1.25, "server": "s3"}
        assert hash_fraction(event) == hash_fraction(dict(event))
        assert 0.0 <= hash_fraction(event) < 1.0

    def test_invalid_rates_are_rejected(self):
        with pytest.raises(ConfigurationError):
            SamplingRecorder(MemoryRecorder(), {"serve": 1.5})
        with pytest.raises(ConfigurationError):
            SamplingRecorder(MemoryRecorder(), default_rate=-0.1)


class TestRollup:
    def test_folds_kind_into_epoch_aggregates(self):
        inner = MemoryRecorder()
        recorder = RollupRecorder(inner, ("serve",), epoch_s=60.0)
        recorder.emit({"kind": "serve", "t": 10.0, "latency_s": 2.0})
        recorder.emit({"kind": "serve", "t": 50.0, "latency_s": 4.0})
        recorder.emit({"kind": "serve", "t": 70.0, "latency_s": 6.0})
        recorder.finalize(120.0)
        rollups = [e for e in inner.events if e["kind"] == "rollup"]
        assert [r["t"] for r in rollups] == [0.0, 60.0]
        first = rollups[0]
        assert first["source"] == "serve" and first["n"] == 2
        assert first["fields"]["latency_s"] == {
            "sum": 6.0, "min": 2.0, "max": 4.0,
        }

    def test_other_kinds_pass_through_in_order(self):
        inner = MemoryRecorder()
        recorder = RollupRecorder(inner, ("serve",), epoch_s=60.0)
        recorder.emit({"kind": "serve", "t": 10.0})
        recorder.emit({"kind": "control", "t": 30.0})
        recorder.emit({"kind": "control", "t": 70.0})
        recorder.finalize(120.0)
        kinds = [e["kind"] for e in inner.events]
        assert kinds == ["control", "rollup", "control"]

    def test_census_counts_everything_rolled(self):
        inner = MemoryRecorder()
        recorder = RollupRecorder(inner, ("serve", "drop"), epoch_s=30.0)
        for i in range(7):
            recorder.emit({"kind": "serve", "t": float(i)})
        recorder.emit({"kind": "drop", "t": 3.0})
        recorder.finalize(60.0)
        census = recorder.observability_snapshot()["trace_rollup"]
        assert census["rolled_up"] == 8
        assert census["by_kind"] == {"drop": 1, "serve": 7}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RollupRecorder(MemoryRecorder(), ())
        with pytest.raises(ConfigurationError):
            RollupRecorder(MemoryRecorder(), ("serve",), epoch_s=0.0)


# ----------------------------------------------------------------------
# Engine-level collection
# ----------------------------------------------------------------------
def tiny_spec(seed, policy="POLCA"):
    from repro.cluster.simulator import ClusterConfig

    return RunSpec(
        config=ClusterConfig(n_base_servers=4, seed=seed),
        policy=PolicySpec(policy),
        duration_s=hours(1),
    )


class TestEngineCollection:
    SPECS = staticmethod(
        lambda: [tiny_spec(11), tiny_spec(12, "No-cap")]
    )

    def reference_traces(self, specs):
        out = {}
        for spec in specs:
            recorder = MemoryRecorder()
            execute_spec(spec, recorder=recorder)
            out[spec.digest()] = lines(recorder.events)
        return out

    def test_serial_segments_equal_direct_recordings(self, tmp_path):
        specs = self.SPECS()
        collector = TraceCollector(tmp_path / "traces")
        engine = SweepEngine(workers=1, collector=collector)
        engine.run_specs(specs)
        for digest, expected in self.reference_traces(specs).items():
            assert lines(collector.events(digest)) == expected
        assert collector.digests() == sorted(
            spec.digest() for spec in specs
        )

    @needs_fork
    def test_pool_segments_equal_direct_recordings(self, tmp_path):
        specs = self.SPECS()
        collector = TraceCollector(tmp_path / "traces")
        engine = SweepEngine(workers=2, collector=collector)
        engine.run_specs(specs)
        for digest, expected in self.reference_traces(specs).items():
            assert lines(collector.events(digest)) == expected

    def test_incremental_segments_equal_direct_recordings(self, tmp_path):
        specs = self.SPECS()
        collector = TraceCollector(tmp_path / "traces")
        engine = SweepEngine(
            workers=1, incremental=True, collector=collector
        )
        engine.run_specs(specs)
        for digest, expected in self.reference_traces(specs).items():
            assert lines(collector.events(digest)) == expected

    def test_cache_hit_without_segment_resimulates(self, tmp_path):
        specs = self.SPECS()
        cache = RunCache()
        SweepEngine(workers=1, cache=cache).run_specs(specs)
        collector = TraceCollector(tmp_path / "traces")
        engine = SweepEngine(workers=1, cache=cache, collector=collector)
        engine.run_specs(specs)
        assert engine.last_stats.simulated == len(specs)
        assert engine.last_stats.cache_hits == 0
        for spec in specs:
            assert collector.has(spec.digest())
        # with segments spooled, the memo hit is honored again
        engine.run_specs(specs)
        assert engine.last_stats.cache_hits == len(specs)
        assert engine.last_stats.simulated == 0

    def test_collection_does_not_perturb_results(self, tmp_path):
        specs = self.SPECS()
        bare = SweepEngine(workers=1).run_specs(specs)
        collected = SweepEngine(
            workers=1, collector=TraceCollector(tmp_path / "traces")
        ).run_specs(specs)
        for a, b in zip(bare, collected):
            assert_results_bit_identical(a, b)

    def test_sampled_collection_applies_in_every_segment(self, tmp_path):
        specs = self.SPECS()
        collector = TraceCollector(
            tmp_path / "traces", sample={"serve": 0.25}
        )
        SweepEngine(workers=1, collector=collector).run_specs(specs)
        for spec in specs:
            recorder = MemoryRecorder()
            execute_spec(spec, recorder=recorder)
            expected = [
                event for event in recorder.events
                if event.get("kind") != "serve"
                or hash_fraction(event) < 0.25
            ]
            assert lines(collector.events(spec.digest())) == \
                lines(expected)

    def test_missing_segment_raises(self, tmp_path):
        collector = TraceCollector(tmp_path / "traces")
        with pytest.raises(ConfigurationError):
            collector.events("no-such-digest")

    def test_collector_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TraceCollector(tmp_path, kinds=())
        with pytest.raises(ConfigurationError):
            TraceCollector(tmp_path, sample={"serve": 2.0})
        with pytest.raises(ConfigurationError):
            TraceCollector(tmp_path, rollup_epoch_s=0.0)


class TestHarnessCollection:
    def test_harness_threads_the_collector_into_its_engine(
        self, tmp_path
    ):
        from repro.core.sweeps import EvaluationHarness

        collector = TraceCollector(tmp_path / "traces")
        harness = EvaluationHarness(
            n_base_servers=10, duration_s=hours(2), seed=1,
            collector=collector,
        )
        engine = harness.engine()
        assert engine.collector is collector
        spec = harness.spec(PolicySpec("No-cap"))
        engine.run_specs([spec])
        assert collector.has(spec.digest())
