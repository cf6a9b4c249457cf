"""Run memoization: digests, the memo cache, and shared-work accounting."""

import os

import pytest

from repro.cluster.simulator import ClusterConfig
from repro.core.policy import POLCA_DEFAULTS, PolcaThresholds
from repro.core.sweeps import (
    EvaluationHarness,
    added_servers_sweep,
    compare_policies,
)
from repro.errors import ConfigurationError
from repro.exec import (
    PolicySpec,
    RunCache,
    RunSpec,
    SweepEngine,
    execute_spec,
    policy_spec_for,
    result_from_dict,
    result_to_dict,
)
from repro.exec import traces
from repro.exec.profile import profile_call, timed
from repro.units import hours


def small_spec(seed: int = 1, added_fraction: float = 0.0,
               policy: str = "No-cap") -> RunSpec:
    return RunSpec(
        config=ClusterConfig(
            n_base_servers=10, added_fraction=added_fraction, seed=seed
        ),
        policy=PolicySpec(policy),
        duration_s=hours(2),
    )


class TestDigests:
    def test_digest_is_stable_across_instances(self):
        assert small_spec().digest() == small_spec().digest()

    def test_digest_distinguishes_every_knob(self):
        base = small_spec()
        assert base.digest() != small_spec(seed=2).digest()
        assert base.digest() != small_spec(added_fraction=0.30).digest()
        assert base.digest() != small_spec(policy="POLCA").digest()

    def test_polca_thresholds_normalize(self):
        explicit = RunSpec(
            config=ClusterConfig(n_base_servers=10, seed=1),
            policy=PolicySpec("POLCA", POLCA_DEFAULTS),
            duration_s=hours(2),
        )
        implicit = RunSpec(
            config=ClusterConfig(n_base_servers=10, seed=1),
            policy=PolicySpec("POLCA"),
            duration_s=hours(2),
        )
        assert explicit.digest() == implicit.digest()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicySpec("Round-Robin")

    def test_thresholds_only_for_polca(self):
        with pytest.raises(ConfigurationError):
            PolicySpec("No-cap", PolcaThresholds())


class TestPolicyRecognition:
    def test_named_policies_round_trip(self):
        from repro.core.baselines import all_policies

        for name, factory in all_policies().items():
            spec = policy_spec_for(factory())
            assert spec is not None and spec.name == name

    def test_custom_thresholds_recognized(self):
        from repro.core.policy import DualThresholdPolicy

        thresholds = PolcaThresholds(t1=0.7, t2=0.8)
        spec = policy_spec_for(DualThresholdPolicy(thresholds))
        assert spec is not None and spec.thresholds == thresholds

    def test_unrecognized_policy_returns_none(self):
        from repro.core.baselines import SingleThresholdAllPolicy

        class Custom(SingleThresholdAllPolicy):
            pass

        assert policy_spec_for(Custom()) is None


class TestRunCache:
    def test_engine_memoizes(self):
        engine = SweepEngine(workers=1)
        spec = small_spec()
        first = engine.run(spec)
        assert engine.last_stats.simulated == 1
        second = engine.run(spec)
        assert second is first
        assert engine.last_stats.simulated == 0
        assert engine.last_stats.cache_hits == 1

    def test_in_batch_duplicates_simulated_once(self):
        engine = SweepEngine(workers=1)
        results = engine.run_specs([small_spec(), small_spec()])
        assert engine.last_stats.requested == 2
        assert engine.last_stats.unique == 1
        assert engine.last_stats.simulated == 1
        assert results[0] is results[1]

    def test_disk_cache_round_trips(self, tmp_path):
        spec = small_spec()
        writer = SweepEngine(workers=1, cache=RunCache(cache_dir=tmp_path))
        original = writer.run(spec)
        # A fresh process would start with an empty memory layer; a new
        # cache over the same directory stands in for that here.
        reader = SweepEngine(workers=1, cache=RunCache(cache_dir=tmp_path))
        recalled = reader.run(spec)
        assert reader.last_stats.simulated == 0
        assert reader.cache.disk_hits == 1
        assert (
            recalled.power_series.values == original.power_series.values
        ).all()
        assert recalled.total_energy_j == original.total_energy_j

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        spec = small_spec()
        cache = RunCache(cache_dir=tmp_path)
        SweepEngine(workers=1, cache=cache).run(spec)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{not json")
        fresh = RunCache(cache_dir=tmp_path)
        assert fresh.get(spec.digest()) is None

    def test_unsupported_schema_disk_entry_is_a_miss(self, tmp_path):
        import json

        spec = small_spec()
        cache = RunCache(cache_dir=tmp_path)
        SweepEngine(workers=1, cache=cache).run(spec)
        entry = next(tmp_path.glob("*.json"))
        encoded = json.loads(entry.read_text())
        encoded["schema"] = 2  # a retired layout, otherwise intact
        entry.write_text(json.dumps(encoded))
        fresh = RunCache(cache_dir=tmp_path)
        assert fresh.get(spec.digest()) is None
        assert fresh.misses == 1
        assert fresh.disk_hits == 0


class TestBoundedDisk:
    def test_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunCache(cache_dir=tmp_path, max_disk_bytes=0)

    def test_lru_eviction_order_and_counter(self, tmp_path):
        cache = RunCache(cache_dir=tmp_path, max_disk_bytes=250)
        cache.put_blob("a", b"x" * 100)
        cache.put_blob("b", b"y" * 100)
        # Touch "a" so "b" becomes the least-recently-used entry.
        assert cache.get_blob("a") == b"x" * 100
        cache.put_blob("c", b"z" * 100)
        assert cache.evictions == 1
        assert (tmp_path / "a.bin").exists()
        assert not (tmp_path / "b.bin").exists()
        assert (tmp_path / "c.bin").exists()
        assert cache.disk_bytes == 200
        # The evicted blob is still served from the memory layer.
        assert cache.get_blob("b") == b"y" * 100

    def test_oversized_entry_stays_memory_only(self, tmp_path):
        cache = RunCache(cache_dir=tmp_path, max_disk_bytes=50)
        cache.put_blob("big", b"x" * 100)
        assert not (tmp_path / "big.bin").exists()
        assert cache.evictions == 0
        assert cache.get_blob("big") == b"x" * 100

    def test_blob_round_trips_across_processes(self, tmp_path):
        RunCache(cache_dir=tmp_path).put_blob("ckpt", b"\x00\x01state")
        fresh = RunCache(cache_dir=tmp_path)
        assert fresh.get_blob("ckpt") == b"\x00\x01state"
        assert fresh.disk_hits == 1
        assert fresh.get_blob("missing") is None
        assert fresh.misses == 1

    def test_lru_seeded_from_mtimes(self, tmp_path):
        writer = RunCache(cache_dir=tmp_path)
        writer.put_blob("old", b"a" * 100)
        writer.put_blob("new", b"b" * 100)
        os.utime(tmp_path / "old.bin", (1, 1))
        os.utime(tmp_path / "new.bin", (2, 2))
        fresh = RunCache(cache_dir=tmp_path, max_disk_bytes=250)
        assert fresh.disk_bytes == 200
        fresh.put_blob("third", b"c" * 100)
        # The oldest-modified file is evicted first by a fresh process.
        assert not (tmp_path / "old.bin").exists()
        assert (tmp_path / "new.bin").exists()

    def test_json_results_count_against_budget(self, tmp_path):
        spec = small_spec()
        cache = RunCache(cache_dir=tmp_path, max_disk_bytes=64)
        SweepEngine(workers=1, cache=cache).run(spec)
        # A full result is far larger than 64 bytes: memory-only.
        assert list(tmp_path.glob("*.json")) == []
        assert cache.get(spec.digest()) is not None

    def test_stats_has_disk_counters(self, tmp_path):
        cache = RunCache(cache_dir=tmp_path, max_disk_bytes=100)
        cache.put_blob("a", b"x" * 60)
        cache.put_blob("b", b"y" * 60)
        stats = cache.stats
        assert stats["evictions"] == 1
        assert stats["blobs"] == 2
        assert stats["disk_bytes"] == 60
        assert stats["stores"] == 2

    def test_clear_disk_drops_blobs_and_accounting(self, tmp_path):
        cache = RunCache(cache_dir=tmp_path)
        cache.put_blob("a", b"x" * 10)
        cache.clear(disk=True)
        assert cache.disk_bytes == 0
        assert list(tmp_path.iterdir()) == []
        assert cache.get_blob("a") is None


class TestSharedBaseline:
    def test_baseline_simulated_once_across_sweeps(self):
        harness = EvaluationHarness(
            n_base_servers=10, duration_s=hours(2), seed=1
        )
        added_servers_sweep(harness, PolcaThresholds(), [0.0, 0.30])
        stores_after_sweep = harness.cache.stores
        compare_policies(harness, added_fraction=0.30, power_scales=(1.0,))
        # The comparison reuses the sweep's baseline: only the three
        # policies not already simulated (POLCA@30 is shared too) are new.
        assert harness.cache.stores == stores_after_sweep + 3

    def test_harness_run_hits_sweep_cache(self):
        from repro.core.policy import DualThresholdPolicy

        harness = EvaluationHarness(
            n_base_servers=10, duration_s=hours(2), seed=1
        )
        points = added_servers_sweep(harness, PolcaThresholds(), [0.30])
        del points
        stores = harness.cache.stores
        harness.run(DualThresholdPolicy(), added_fraction=0.30)
        assert harness.cache.stores == stores


class TestCodec:
    def test_round_trip_is_value_identical(self):
        original = execute_spec(small_spec(policy="POLCA",
                                           added_fraction=0.30))
        decoded = result_from_dict(result_to_dict(original))
        assert (
            decoded.power_series.values == original.power_series.values
        ).all()
        assert decoded.power_series.interval == original.power_series.interval
        assert decoded.total_energy_j == original.total_energy_j
        assert decoded.capping_actions == original.capping_actions
        assert decoded.power_brake_events == original.power_brake_events
        assert decoded.duration_s == original.duration_s
        for priority, metrics in original.per_priority.items():
            assert decoded.per_priority[priority].latencies == \
                metrics.latencies
            assert decoded.per_priority[priority].served == metrics.served
            assert decoded.per_priority[priority].dropped == metrics.dropped

    def test_schema_mismatch_rejected(self):
        encoded = result_to_dict(execute_spec(small_spec()))
        encoded["schema"] = -1
        with pytest.raises(ConfigurationError):
            result_from_dict(encoded)

    def test_schema_v5_still_decodes(self):
        # v5 lacks only the optional sim_core kernel-timer section
        # inside observability, which is pass-through — the checked-in
        # golden_reference_results_v5.json exercises the same shim
        # against real pre-SoA captures.
        encoded = result_to_dict(execute_spec(small_spec()))
        encoded["schema"] = 5
        decoded = result_from_dict(encoded)
        assert decoded.duration_s == encoded["duration_s"]
        assert decoded.observability is None

    def test_current_schema_is_v6(self):
        from repro.exec.codec import SCHEMA_VERSION

        assert SCHEMA_VERSION == 6
        encoded = result_to_dict(execute_spec(small_spec()))
        assert encoded["schema"] == 6
        # An unprotected run serializes an explicitly empty section.
        assert encoded["powerfail"] is None

    def test_kernel_timer_section_round_trips(self):
        from repro.cluster.simulator import ClusterSimulator
        from repro.exec import traces

        spec = small_spec()
        requests = traces.requests_for(spec.trace_key())
        result = ClusterSimulator(
            spec.config, spec.policy.build(), kernel_timers=True
        ).run(requests, spec.duration_s)
        decoded = result_from_dict(result_to_dict(result))
        timers = decoded.observability["sim_core"]["kernel_timers"]
        assert timers == result.observability["sim_core"]["kernel_timers"]
        assert timers["tick"]["calls"] > 0


class TestTraceCache:
    def test_traces_shared_by_key(self):
        key = traces.TraceKey(seed=1, n_servers=10, duration_s=hours(2))
        assert traces.requests_for(key) is traces.requests_for(key)

    def test_trace_cache_is_bounded(self):
        for seed in range(traces._MAX_TRACES + 4):
            traces.utilization_trace(seed=seed + 1000, duration_s=hours(2))
        assert traces.cache_sizes()["utilization_traces"] <= \
            traces._MAX_TRACES


class TestProfileHelpers:
    def test_profile_call_returns_result_and_hotspots(self):
        result, report = profile_call(sum, range(1000), top=5)
        assert result == sum(range(1000))
        assert report.wall_s >= 0
        assert len(report.top) <= 5
        assert all(spot.tottime_s >= 0 for spot in report.top)
        assert "cumtime" in report.text

    def test_profile_kernels_surfaces_event_loop_counters(self):
        from repro.exec import kernel_stats, profile_kernels

        result, stats = profile_kernels(small_spec())
        assert stats  # at least ticks ran
        kinds = {stat.kind for stat in stats}
        assert "tick" in kinds
        assert all(stat.calls > 0 and stat.seconds >= 0 for stat in stats)
        assert stats == kernel_stats(result)
        # The counters ride in observability, so they survive the codec.
        decoded = result_from_dict(result_to_dict(result))
        assert kernel_stats(decoded) == stats
        # Untimed runs read back empty rather than raising.
        assert kernel_stats(execute_spec(small_spec())) == ()

    def test_timed_freezes_at_block_exit(self):
        with timed() as elapsed:
            during = elapsed()
        after = elapsed()
        assert during >= 0
        assert after == elapsed()
