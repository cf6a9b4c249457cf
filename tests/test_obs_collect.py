"""Per-run trace collection (repro.obs.collect).

The acceptance bar: engine-collected segments (serial, pool,
incremental) equal direct recordings, a recorded incremental run
records the same stream — and carries the same observability — as a
cold run (it runs cold), and the JSONL sink's sample keeps a deterministic exact subsequence
with a census that accounts for every dropped event.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, TelemetryFaultSpec
from repro.exec import (
    PolicySpec,
    RunSpec,
    SweepEngine,
    execute_spec,
    fork_available,
)
from repro.exec.cache import RunCache
from repro.exec.incremental import IncrementalExecutor, family_digest
from repro.obs import (
    AlertEngine,
    JsonlRecorder,
    MemoryRecorder,
    TraceCollector,
    hash_fraction,
    read_jsonl,
)
from repro.units import hours

from .test_exec_incremental import REFERENCE_POLICIES, reference_spec
from .test_obs import assert_results_bit_identical

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork start method"
)


#: The overhead-bounded site config of the recording benchmarks:
#: low-rate kinds kept in full, ``serve`` hash-sampled at 5%.
SITE_KINDS = (
    "brake_cancel_release", "brake_issue", "brake_land", "brake_reissue",
    "brake_release_request", "brake_request", "brake_verify",
    "cap_issue", "cap_land", "cap_reissue", "cap_verify",
    "capacity_status", "drop", "fallback_enter", "fallback_exit",
    "phase_rescale", "reenergize", "reenergize_done", "run_meta",
    "serve", "server_fail", "server_recover",
    "shed_defer", "shed_engage", "shed_release",
    "telemetry_fault", "trip_risk",
)
SITE_SAMPLE = {"serve": 0.05}


def lines(events):
    """The byte-comparison canonical form of an event stream."""
    return [json.dumps(event, sort_keys=True) for event in events]


def filtered_then_sampled(events, kinds, sample):
    """The reference selection: kind filter first, then hash sample."""
    return [
        event for event in events
        if (kinds is None or event.get("kind") in kinds)
        and hash_fraction(event) < sample.get(event.get("kind"), 1.0)
    ]


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
        assert executor.stats.cold_runs == 2
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
        # on this trace: unrecorded, the whole family tape would match
        # and the result be reused; recorded, it runs cold.
        variant_spec = reference_spec(
            "polca-default",
            PolicySpec("POLCA", PolcaThresholds(t2=0.90)),
        )
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        base = executor.execute(base_spec, recorder=MemoryRecorder())
        executor.cache.put(base_spec.digest(), base)
        recorder = MemoryRecorder()
        executor.execute(variant_spec, recorder=recorder)
        assert executor.stats.cold_runs == 2
        _, cold_events = self.cold_trace(base_spec)
        assert lines(recorder.events) == lines(cold_events)

    def test_unrecorded_family_is_rerecorded_for_a_recorded_variant(self):
        # The family tape was laid down without a recorder; a recorded
        # run of the same spec must still record the full cold trace.
        spec = reference_spec("polca-default", PolicySpec("POLCA"))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(spec)
        recorder = MemoryRecorder()
        executor.execute(spec, recorder=recorder)
        _, cold_events = self.cold_trace(spec)
        assert lines(recorder.events) == lines(cold_events)


    def test_recorded_run_leaves_the_family_tape_alone(self):
        base_policy, variant_policy = \
            REFERENCE_POLICIES["polca-oversubscribed"]
        base_spec = reference_spec("polca-oversubscribed", base_policy)
        cache = RunCache()
        executor = IncrementalExecutor(cache, checkpoint_epoch_s=300.0)
        executor.execute(base_spec, recorder=MemoryRecorder())
        assert executor.stats.cold_runs == 1
        assert cache.get_blob(f"{family_digest(base_spec)}-tape") is None
        # The first unrecorded run of the family lays the tape down, and
        # the next one resumes from it.
        executor.execute(base_spec)
        executor.execute(
            reference_spec("polca-oversubscribed", variant_policy)
        )
        assert executor.stats.base_runs == 1
        assert executor.stats.resumed_runs == 1


class TestIncrementalObservability:
    """Cold, incremental base and incremental resume runs carry the
    recorder's observability sections alike."""

    def check_paths(self, open_recorder):
        base_policy, variant_policy = \
            REFERENCE_POLICIES["polca-oversubscribed"]
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        observed = []
        for policy in (base_policy, variant_policy):
            spec = reference_spec("polca-oversubscribed", policy)
            with open_recorder() as recorder:
                incremental = executor.execute(spec, recorder=recorder)
            with open_recorder() as recorder:
                cold = execute_spec(spec, recorder=recorder)
            assert incremental.observability == cold.observability
            observed.append(cold.observability)
        assert executor.stats.cold_runs == 2
        return observed

    def test_alert_engine_sections_on_every_path(self):
        for observability in self.check_paths(AlertEngine):
            assert {"alerts", "incidents"} <= set(observability)

    def test_sampled_sink_census_on_every_path(self, tmp_path):
        collector = TraceCollector(
            tmp_path / "traces", kinds=SITE_KINDS, sample={"serve": 0.25}
        )
        for observability in self.check_paths(
            lambda: collector.job("run").open()
        ):
            census = observability["trace_sampling"]
            assert census["dropped_by_kind"].keys() == {"serve"}


# ----------------------------------------------------------------------
# Overhead-bounded recording: the JSONL sink's kind filter and sample
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


def through_sink(path, events, **sink_options):
    """Emit ``events`` into a JSONL sink; return it and the file's events."""
    with JsonlRecorder(str(path), **sink_options) as sink:
        for event in events:
            sink.emit(event)
    return sink, read_jsonl(str(path))


class TestSampling:
    @settings(max_examples=50, deadline=None)
    @given(
        events=st.lists(event_strategy, max_size=60),
        kinds=st.none() | st.frozensets(
            st.sampled_from(EVENT_KINDS), min_size=1
        ),
        rates=st.dictionaries(
            st.sampled_from(EVENT_KINDS),
            st.floats(min_value=0.0, max_value=1.0),
            max_size=len(EVENT_KINDS),
        ),
    )
    def test_sampled_is_a_subsequence_with_exact_census(
        self, events, kinds, rates
    ):
        with tempfile.TemporaryDirectory() as scratch:
            sink, written = through_sink(
                Path(scratch) / "t.jsonl", events, kinds=kinds, sample=rates
            )
        sampled = lines(written)
        # exact subsequence: every kept line appears in order
        iterator = iter(lines(events))
        assert all(line in iterator for line in sampled)
        assert sampled == lines(filtered_then_sampled(events, kinds, rates))
        census = sink.observability_snapshot()["trace_sampling"]
        assert census["kept"] == sink.events_written == len(written)
        # the census covers the kept-kind stream alone
        assert census["kept"] + census["dropped"] == sum(
            1 for event in events if kinds is None or event["kind"] in kinds
        )
        assert census["dropped"] == sum(
            census["dropped_by_kind"].values()
        )

    def test_keep_decision_is_a_pure_function_of_the_event(self, tmp_path):
        events = [
            {"kind": "serve", "t": float(i), "value": i}
            for i in range(200)
        ]
        _, first = through_sink(
            tmp_path / "a.jsonl", events, sample={"serve": 0.5}
        )
        _, second = through_sink(
            tmp_path / "b.jsonl", events[::-1], sample={"serve": 0.5}
        )
        assert sorted(lines(first)) == sorted(lines(second))
        assert 0 < len(first) < len(events)

    def test_rate_one_keeps_everything(self, tmp_path):
        events = [{"kind": "serve", "t": float(i)} for i in range(50)]
        sink, written = through_sink(
            tmp_path / "t.jsonl", events, sample={"serve": 1.0}
        )
        assert len(written) == 50
        assert sink.dropped_by_kind == {}

    def test_rate_zero_drops_everything_counted(self, tmp_path):
        events = [{"kind": "serve", "t": float(i)} for i in range(50)]
        sink, written = through_sink(
            tmp_path / "t.jsonl", events, sample={"serve": 0.0}
        )
        assert written == []
        assert sink.dropped_by_kind == {"serve": 50}

    def test_kind_filter_runs_before_the_sample(self, tmp_path):
        events = [
            {"kind": kind, "t": float(i)}
            for i in range(10) for kind in ("serve", "control")
        ]
        sink, written = through_sink(
            tmp_path / "t.jsonl", events,
            kinds=["serve"], sample={"serve": 0.0, "control": 0.0},
        )
        assert written == []
        # filtered-out kinds are neither wanted nor counted as dropped
        assert sink.dropped_by_kind == {"serve": 10}
        assert sink.wants("serve") and not sink.wants("control")

    def test_census_only_when_sampling(self, tmp_path):
        sink, _ = through_sink(tmp_path / "t.jsonl", [{"kind": "serve"}])
        assert sink.observability_snapshot() is None

    def test_hash_fraction_is_deterministic_and_bounded(self):
        event = {"kind": "serve", "t": 1.25, "server": "s3"}
        assert hash_fraction(event) == hash_fraction(dict(event))
        assert 0.0 <= hash_fraction(event) < 1.0

    def test_invalid_rates_are_rejected(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(ConfigurationError):
            JsonlRecorder(path, sample={"serve": 1.5})
        with pytest.raises(ConfigurationError):
            JsonlRecorder(path, sample={"serve": -0.1})


# ----------------------------------------------------------------------
# Engine-level collection
# ----------------------------------------------------------------------
def tiny_spec(seed, policy="POLCA", fault_plan=None):
    from repro.cluster.simulator import ClusterConfig

    return RunSpec(
        config=ClusterConfig(
            n_base_servers=4, seed=seed, fault_plan=fault_plan
        ),
        policy=PolicySpec(policy),
        duration_s=hours(1),
    )


#: Readings reach the controller 3 s after their 2 s tick, so one is
#: always in flight.
DELAYED_PLAN = FaultPlan(telemetry=TelemetryFaultSpec(delay_s=3.0))


class TestEngineCollection:
    SPECS = staticmethod(lambda plan=None: [
        tiny_spec(11, fault_plan=plan),
        tiny_spec(12, "No-cap", fault_plan=plan),
    ])

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
        self.check_collection(tmp_path, "serial", None, {"serve": 0.25})

    @pytest.mark.parametrize("path", [
        "serial",
        pytest.param("pool", marks=needs_fork),
        "incremental",
        pytest.param("incremental-pool", marks=needs_fork),
    ])
    @pytest.mark.parametrize("kinds, sample, plan", [
        (None, {"serve": 0.25}, None),
        (SITE_KINDS, SITE_SAMPLE, None),
        (None, {"serve": 0.25}, DELAYED_PLAN),
    ], ids=["sample", "site", "delayed"])
    def test_filtered_sampled_collection_on_every_path(
        self, tmp_path, path, kinds, sample, plan
    ):
        self.check_collection(tmp_path, path, kinds, sample, plan)

    def check_collection(self, tmp_path, path, kinds, sample, plan=None):
        specs = self.SPECS(plan)
        collector = TraceCollector(
            tmp_path / "traces", kinds=kinds, sample=sample
        )
        engine = SweepEngine(
            workers=2 if path.endswith("pool") else 1,
            incremental=path.startswith("incremental"),
            collector=collector,
        )
        engine.run_specs(specs)
        if path == "incremental-pool":
            # Recorded runs are cold, so they fan out over the pool.
            assert engine.last_stats.workers_used == 2
        for spec in specs:
            recorder = MemoryRecorder()
            execute_spec(spec, recorder=recorder)
            expected = filtered_then_sampled(recorder.events, kinds, sample)
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
