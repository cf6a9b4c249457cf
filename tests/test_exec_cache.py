"""Run memoization: digests, the memo cache, and shared-work accounting."""

import base64
import json
import math
import os
import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.analysis.timeseries import TimeSeries
from repro.cluster.metrics import ServeLogBuilder, SimulationResult
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
from repro.workloads.spec import Priority


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


def _f64(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


#: A NaN with a payload, which decimal text cannot carry.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF0_0000_0000_0001))[0]

#: Floats a decimal round trip is most likely to get wrong.
EDGE_FLOATS = st.sampled_from([
    math.nan, NAN_PAYLOAD, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.1125369292536007e-308, 1.7976931348623157e308,
    0.1, 1 / 3,
])
FLOATS = st.one_of(st.floats(), EDGE_FLOATS)
FLOAT_LISTS = st.lists(FLOATS, max_size=40)
PRIORITY = st.sampled_from(list(Priority))


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def serve_events(draw, distinct=False):
    """A run's serves ``(priority, workload, latency)`` and drops
    ``(priority, workload)`` in serve order. "Idle" only ever drops."""
    latencies = draw(
        st.lists(FLOATS, max_size=30, unique_by=_bits) if distinct
        else st.lists(FLOATS, max_size=30)
    )
    serves = [
        (draw(PRIORITY), draw(st.sampled_from(["Summarize", "Search",
                                                "Chat"])), latency)
        for latency in latencies
    ]
    drops = draw(st.lists(
        st.tuples(PRIORITY, st.sampled_from(["Chat", "Idle"])), max_size=4
    ))
    return draw(st.permutations(serves + drops))


def _serve_log(events):
    log = ServeLogBuilder()
    for event in events:
        if len(event) == 3:
            log.serve(*event)
        else:
            log.drop(*event)
    return log.build()


def _synthetic_result(events, power) -> SimulationResult:
    return SimulationResult(
        serve_log=_serve_log(events),
        power_series=TimeSeries(start=0.0, interval=2.0, values=power),
        provisioned_power_w=1000.0,
        power_brake_events=0,
        capping_actions=3,
        duration_s=60.0,
        total_energy_j=1.5,
    )


def _expected_tiers(events, key):
    """Per-tier ``[latencies, dropped]`` keyed by an event's priority
    (``key=0``) or workload (``key=1``), in first-touch order."""
    tiers = {}
    for event in events:
        tier = tiers.setdefault(event[key], [[], 0])
        if len(event) == 3:
            tier[0].append(event[2])
        else:
            tier[1] += 1
    return tiers


def assert_views_match(result, events):
    """Both views hold exactly the events' per-tier latencies, bit for
    bit and in serve order, and their drop counts."""
    by_priority = _expected_tiers(events, 0)
    by_workload = _expected_tiers(events, 1)
    assert list(result.per_priority) == list(Priority)
    assert list(result.per_workload) == list(by_workload)
    views = [(result.per_priority[p], by_priority.get(p, [[], 0]))
             for p in Priority]
    views += [(result.per_workload[name], tier)
              for name, tier in by_workload.items()]
    for view, (latencies, dropped) in views:
        assert all(type(v) is float for v in view.latencies)
        assert _f64(view.latencies) == _f64(latencies)
        assert view.served == len(latencies)
        assert view.dropped == dropped


def _list_form_entry(result):
    """``result`` as a schema-6 disk entry: per-tier packed lists."""
    entry = result_to_dict(result)
    entry["schema"] = 6
    for group in ("per_priority", "per_workload"):
        for metrics in entry[group].values():
            raw = _f64(metrics["latencies"])
            metrics["latencies"] = {"f64": base64.b64encode(raw).decode()}
    return entry


def _repack(tier, change):
    """Apply ``change`` to a packed list-form tier's latency array."""
    latencies = np.frombuffer(base64.b64decode(tier["latencies"]["f64"]))
    tier["latencies"] = {
        "f64": base64.b64encode(_f64(change(latencies))).decode()
    }


@pytest.fixture(scope="module")
def stored_entry():
    """A real result and the digest it is stored under."""
    spec = small_spec()
    return spec.digest(), execute_spec(spec)


class TestDiskCodec:
    """Result entries on disk: packed float64 arrays, exact and robust."""

    @settings(max_examples=60, deadline=None)
    @given(events=serve_events(), power=FLOAT_LISTS)
    @example(events=[], power=[])
    @example(events=[(Priority.LOW, "Chat", -0.0),
                     (Priority.HIGH, "Chat", NAN_PAYLOAD),
                     (Priority.LOW, "Idle"),
                     (Priority.HIGH, "Search", 5e-324)],
             power=[math.inf])
    def test_round_trip_is_bit_identical(self, events, power):
        original = _synthetic_result(events, power)
        assert_views_match(original, events)
        with tempfile.TemporaryDirectory() as cache_dir:
            RunCache(cache_dir).put("entry", original)
            fresh = RunCache(cache_dir)
            decoded = fresh.get("entry")
        assert fresh.disk_hits == 1
        assert_views_match(decoded, events)
        values = decoded.power_series.values
        assert values.dtype == np.float64 and values.flags.writeable
        assert values.tobytes() == _f64(power)
        assert_views_match(pickle.loads(pickle.dumps(original)), events)

    @settings(max_examples=60, deadline=None)
    @given(events=serve_events(distinct=True))
    @example(events=[(Priority.HIGH, "Chat", NAN_PAYLOAD),
                     (Priority.LOW, "Chat", math.nan),
                     (Priority.LOW, "Search", 0.0),
                     (Priority.HIGH, "Summarize", -0.0),
                     (Priority.HIGH, "Idle")])
    def test_list_form_round_trip_rebuilds_the_serve_order(self, events):
        original = _synthetic_result(events, [])
        decoded = result_from_dict(result_to_dict(original))
        assert_views_match(decoded, events)

    @settings(max_examples=30, deadline=None)
    @given(events=serve_events(distinct=True), corrupt=st.sampled_from([
        None, "foreign_workload_float", "served_not_list_length",
        "unequal_totals",
    ]))
    def test_list_form_that_cannot_interleave_is_a_miss(
        self, events, corrupt
    ):
        entry = _list_form_entry(_synthetic_result(events, []))
        serving = [t for t in entry["per_workload"].values() if t["served"]]
        assume(serving or corrupt in (None, "served_not_list_length"))
        present = {_bits(event[2]) for event in events if len(event) == 3}
        foreign = next(float(v) for v in range(len(present) + 1)
                       if _bits(float(v)) not in present)
        if corrupt == "foreign_workload_float":
            _repack(serving[0], lambda lat: np.append(lat[:-1], foreign))
        elif corrupt == "served_not_list_length":
            entry["per_priority"][Priority.LOW.value]["served"] += 1
        elif corrupt == "unequal_totals":
            serving[0]["served"] += 1
            _repack(serving[0], lambda lat: np.append(lat, foreign))
        with tempfile.TemporaryDirectory() as cache_dir:
            Path(cache_dir, "entry.json").write_text(json.dumps(entry))
            cache = RunCache(cache_dir)
            decoded = cache.get("entry")
        if corrupt is None:
            assert cache.disk_hits == 1
            assert_views_match(decoded, events)
        else:
            assert decoded is None
            assert cache.misses == 1

    def test_entry_packs_the_float_arrays(self, tmp_path, stored_entry):
        digest, result = stored_entry
        RunCache(tmp_path).put(digest, result)
        entry = json.loads((tmp_path / f"{digest}.json").read_bytes())
        assert "per_priority" not in entry and "per_workload" not in entry
        log = entry["serve_log"]
        assert set(log["latencies"]) == {"f64"}
        assert set(log["codes"]) == {"u8"}
        packed = entry["power_series"]["values"]
        assert set(packed) == {"f64"}
        values = result.power_series.values
        assert base64.b64decode(packed["f64"]) == values.astype("<f8").tobytes()
        assert base64.b64decode(log["latencies"]["f64"]) == \
            result.serve_log.latencies.astype("<f8").tobytes()
        assert base64.b64decode(log["codes"]["u8"]) == \
            result.serve_log.codes.tobytes()

    def test_list_form_entry_still_loads(self, tmp_path, stored_entry):
        digest, result = stored_entry
        (tmp_path / f"{digest}.json").write_text(
            json.dumps(result_to_dict(result))
        )
        cache = RunCache(tmp_path)
        decoded = cache.get(digest)
        assert cache.disk_hits == 1
        assert result_to_dict(decoded) == result_to_dict(result)

    @pytest.mark.parametrize("corrupt", [
        "non_base64_character",
        "payload_not_multiple_of_8",
        "packed_payload_not_a_string",
        "array_field_a_string",
        "array_field_missing_key",
        "metric_groups_a_list",
        "truncated_mid_payload",
        "code_out_of_range",
        "drop_totals_disagree",
    ])
    def test_corrupt_entry_is_a_miss(self, tmp_path, stored_entry, corrupt):
        digest, result = stored_entry
        RunCache(tmp_path).put(digest, result)
        path = tmp_path / f"{digest}.json"
        raw = path.read_bytes()
        entry = json.loads(raw)
        log = entry["serve_log"]
        packed = log["latencies"]
        if corrupt == "non_base64_character":
            packed["f64"] = "!" + packed["f64"][1:]
        elif corrupt == "payload_not_multiple_of_8":
            packed["f64"] = base64.b64encode(b"\x00" * 12).decode()
        elif corrupt == "packed_payload_not_a_string":
            packed["f64"] = 12
        elif corrupt == "array_field_a_string":
            log["latencies"] = "123"
        elif corrupt == "array_field_missing_key":
            entry["power_series"]["values"] = {"f32": ""}
        elif corrupt == "metric_groups_a_list":
            entry["serve_log"] = []
        elif corrupt == "code_out_of_range":
            codes = bytearray(base64.b64decode(log["codes"]["u8"]))
            codes[0] = 255
            log["codes"]["u8"] = base64.b64encode(codes).decode()
        elif corrupt == "drop_totals_disagree":
            log["dropped_by_priority"][0] += 1
        if corrupt == "truncated_mid_payload":
            path.write_bytes(raw[:raw.index(b'"f64"') + 100])
        else:
            path.write_text(json.dumps(entry))
        fresh = RunCache(tmp_path)
        assert fresh.get(digest) is None
        assert fresh.misses == 1
        assert fresh.disk_hits == 0

    def test_entry_vanishing_mid_read_is_a_miss(
        self, tmp_path, stored_entry, monkeypatch
    ):
        # Another process evicting the entry under max_disk_bytes.
        digest, result = stored_entry
        RunCache(tmp_path).put(digest, result)
        read_bytes = Path.read_bytes

        def vanish(path):
            path.unlink()
            return read_bytes(path)

        fresh = RunCache(tmp_path)
        monkeypatch.setattr(Path, "read_bytes", vanish)
        assert fresh.get(digest) is None
        assert fresh.misses == 1
        assert fresh.disk_hits == 0

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        (tmp_path / "entry.json").mkdir()
        (tmp_path / "blob.bin").mkdir()
        cache = RunCache(tmp_path)
        assert cache.get("entry") is None
        assert cache.get_blob("blob") is None
        assert cache.misses == 2
        assert cache.disk_hits == 0


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

    def test_current_schema_is_v7(self):
        from repro.exec.codec import SCHEMA_VERSION

        assert SCHEMA_VERSION == 7
        encoded = result_to_dict(execute_spec(small_spec()))
        assert encoded["schema"] == 7
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
