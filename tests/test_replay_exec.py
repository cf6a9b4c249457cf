"""Replayed traces through the execution engine: parity and digests.

The tentpole guarantee: a replayed Azure CSV (or session/burst source)
flows through ``TraceKey``/``RunSpec`` into the sweep engine, the memo
cache, incremental re-simulation, and the process pool *unchanged*,
and every path produces bit-identical results. Digests are content
addresses: same trace bytes → same digest on any machine, regardless
of where the file lives.
"""

import shutil

import pytest

from repro.cluster.simulator import ClusterConfig
from repro.core.policy import PolcaThresholds
from repro.core.sweeps import EvaluationHarness, threshold_search
from repro.exec import (
    PolicySpec,
    RunSpec,
    SweepEngine,
    TraceKey,
    execute_spec,
    family_digest,
    requests_for,
)
from repro.exec import traces as _traces
from repro.exec.engine import fork_available
from repro.units import hours
from repro.workloads.replay import (
    BurstWindow,
    CsvReplaySpec,
    FlashCrowdSpec,
    SessionProfile,
    TraceSource,
)
from repro.workloads.tracegen import SyntheticTraceGenerator

FIXTURE = "tests/data/azure_llm_sample.csv"

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork start method"
)


def csv_source(**kwargs):
    return TraceSource(csv=CsvReplaySpec.from_file(FIXTURE, **kwargs))


def replay_spec(source, policy=None, seed=5):
    return RunSpec(
        config=ClusterConfig(n_base_servers=4, seed=seed),
        policy=policy or PolicySpec("No-cap"),
        duration_s=hours(1),
        trace=source,
    )


def assert_bit_identical(a, b):
    assert (a.power_series.values == b.power_series.values).all()
    assert a.total_energy_j == b.total_energy_j
    assert a.total_served == b.total_served
    assert a.power_brake_events == b.power_brake_events


class TestTraceKeyDispatch:
    def test_replayed_stream_reaches_the_simulator(self):
        key = TraceKey(seed=0, n_servers=4, duration_s=hours(1),
                       source=csv_source())
        requests = requests_for(key)
        assert len(requests) == 219  # every fixture row replayed

    def test_key_caches_by_source(self):
        _traces.clear_caches()
        source = csv_source()
        key = TraceKey(seed=5, n_servers=4, duration_s=hours(1),
                       source=source)
        assert requests_for(key) is requests_for(key)
        plain = TraceKey(seed=5, n_servers=4, duration_s=hours(1))
        assert requests_for(plain) is not requests_for(key)
        assert _traces.cache_sizes()["request_traces"] == 2

    def test_window_slice_changes_the_stream(self):
        full = requests_for(TraceKey(
            seed=0, n_servers=4, duration_s=hours(1), source=csv_source()
        ))
        sliced = requests_for(TraceKey(
            seed=0, n_servers=4, duration_s=hours(1),
            source=csv_source(window_start_s=600.0, window_end_s=1800.0),
        ))
        assert 0 < len(sliced) < len(full)

    def test_burst_on_synthetic_base(self):
        plain = TraceKey(seed=0, n_servers=8, duration_s=hours(6))
        burst = TraceKey(
            seed=0, n_servers=8, duration_s=hours(6),
            source=TraceSource(burst=FlashCrowdSpec(
                windows=(BurstWindow(3600.0, 3600.0, magnitude=3.0),),
            )),
        )
        base = requests_for(plain)
        crowded = requests_for(burst)
        assert len(crowded) > len(base)


class TestDigests:
    def test_replay_digest_differs_from_synthetic(self):
        assert replay_spec(csv_source()).digest() \
            != replay_spec(None).digest()

    def test_digest_is_path_independent(self, tmp_path):
        moved = tmp_path / "renamed.csv"
        shutil.copy(FIXTURE, moved)
        original = TraceSource(csv=CsvReplaySpec.from_file(FIXTURE))
        relocated = TraceSource(csv=CsvReplaySpec.from_file(moved))
        assert replay_spec(original).digest() \
            == replay_spec(relocated).digest()

    def test_digest_tracks_slice_and_scale(self):
        base = replay_spec(csv_source()).digest()
        assert replay_spec(csv_source(window_start_s=60.0)).digest() != base
        assert replay_spec(csv_source(time_scale=2.0)).digest() != base
        assert replay_spec(csv_source(classify_salt=1)).digest() != base

    def test_family_digest_includes_trace(self):
        assert family_digest(replay_spec(csv_source())) \
            != family_digest(replay_spec(None))

    def test_specs_pickle(self):
        import pickle

        spec = replay_spec(TraceSource(
            sessions=SessionProfile(n_sessions=10),
            burst=FlashCrowdSpec(windows=(BurstWindow(0.0, 60.0),)),
        ))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.digest() == spec.digest()


class TestExecutionParity:
    """Serial, parallel, cached, incremental: one stream."""

    @pytest.fixture(scope="class")
    def spec(self):
        return replay_spec(
            csv_source(),
            policy=PolicySpec(
                "POLCA", PolcaThresholds(t1=0.80, t2=0.90)
            ),
        )

    @pytest.fixture(scope="class")
    def serial(self, spec):
        return execute_spec(spec)

    def test_cached_matches_serial(self, spec, serial):
        engine = SweepEngine(workers=1)
        first = engine.run_specs([spec])[0]
        again = engine.run_specs([spec])[0]
        assert engine.last_stats.cache_hits == 1
        assert_bit_identical(first, serial)
        assert_bit_identical(again, serial)

    @needs_fork
    def test_parallel_matches_serial(self, spec, serial):
        results = SweepEngine(workers=2).run_specs(
            [spec, replay_spec(csv_source(), seed=6)]
        )
        assert_bit_identical(results[0], serial)

    def test_incremental_matches_serial(self, spec, serial):
        engine = SweepEngine(workers=1, incremental=True)
        assert_bit_identical(engine.run_specs([spec])[0], serial)


def _stream_digest(requests):
    import hashlib

    digest = hashlib.sha256()
    for r in requests:
        digest.update((
            f"{r.arrival_time!r}:{r.workload.name}:{r.priority.value}:"
            f"{r.input_tokens}:{r.output_tokens}\n"
        ).encode())
    return digest.hexdigest()


class TestSyntheticPipelineGoldens:
    """Pinned cross-seed digests of the synthetic workloads pipeline.

    The engine's content-addressed memoization (and the parity
    guarantees above) assume the trace synthesis itself is
    platform-deterministic; these goldens pin the full request stream
    per seed. They change only when trace synthesis changes — which
    must come with a ``DIGEST_VERSION`` bump in ``repro.exec.runspec``.
    """

    @pytest.mark.parametrize("seed,expected", [
        (0, "005fb287a311bcc48980b7d340f430797c32b21769c41f8be790f0be8e409dd2"),
        (1, "f335c54aafc1da9aa3b107ec123ee6a2e3c5a0b1044a825dcec92762126593d0"),
    ])
    def test_request_stream_golden_per_seed(self, seed, expected):
        key = TraceKey(seed=seed, n_servers=8, duration_s=hours(6))
        assert _stream_digest(requests_for(key)) == expected

    @pytest.mark.parametrize("seed,mape,power_sha", [
        (0, "0.013503284855211191",
         "51d421c00cf34f04345b2550c5e36c2cd91577720312b781ac8ef41c47b2c0a9"),
        (1, "0.01188906447880473",
         "f84d64c8d861f2651f8da15b4672b83fbbd4efe7eb33477c6d216ef271bf26e8"),
    ])
    def test_reconstruction_golden_per_seed(self, seed, mape, power_sha):
        import hashlib

        synthetic = SyntheticTraceGenerator(n_servers=8, seed=seed).generate(
            _traces.utilization_trace(seed, hours(6))
        )
        assert repr(synthetic.mape) == mape
        assert hashlib.sha256(
            synthetic.reconstructed_power.values.tobytes()
        ).hexdigest() == power_sha

    def test_fig13_serial_request_stream_golden(self):
        # The trace key of the benchmark's fig13_serial workload.
        requests = requests_for(
            TraceKey(seed=1, n_servers=14, duration_s=hours(12))
        )
        assert len(requests) == 8510
        assert _stream_digest(requests) == (
            "75441110533f02a0b9d7402dc82e93a9a978c889fdfdb2fbeb221c80d597cd47"
        )


class TestHarnessIntegration:
    def test_trace_source_flows_through_sweeps(self):
        harness = EvaluationHarness(
            n_base_servers=4, duration_s=hours(1), seed=5,
            trace_source=csv_source(),
        )
        points = threshold_search(
            harness,
            [("80-90", PolcaThresholds(t1=0.80, t2=0.90))],
            [0.25],
        )
        point = points[("80-90", 0.25)]
        assert point.power_brake_events >= 0
        assert all(v > 0 for v in point.normalized_p99.values())

    def test_harness_replay_differs_from_synthetic(self):
        replayed = EvaluationHarness(
            n_base_servers=4, duration_s=hours(1), seed=5,
            trace_source=csv_source(),
        )
        synthetic = EvaluationHarness(
            n_base_servers=4, duration_s=hours(1), seed=5,
        )
        assert replayed.baseline_spec().digest() \
            != synthetic.baseline_spec().digest()
        assert replayed.requests_for(0.0) \
            != synthetic.requests_for(0.0)

    def test_session_source_runs_end_to_end(self):
        harness = EvaluationHarness(
            n_base_servers=4, duration_s=hours(1), seed=5,
            trace_source=TraceSource(
                sessions=SessionProfile(n_sessions=60, seed=2),
            ),
        )
        result = harness.baseline()
        assert result.total_served > 0
