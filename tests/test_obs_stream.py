"""Streaming aggregation: online values equal the post-hoc recompute.

Two guarantees anchor this suite. First, every streaming aggregate —
EWMA, rolling rate, window max, window quantile — must equal a
brute-force recomputation over the recorded trace of the same events
(property-tested with hypothesis over random event sequences). Second,
attaching any live consumer (StreamMonitor, TeeRecorder, or both teed
with storage sinks) must leave the simulation bit-identical across the
reference configurations: monitors observe, never perturb.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs import (
    AlertEngine,
    MemoryRecorder,
    NullRecorder,
    StreamMonitor,
    TeeRecorder,
)
from repro.obs.stream import Ewma, RollingRate, WindowMax, WindowQuantile
from tests.test_obs import (
    REFERENCE_CONFIGS,
    assert_results_bit_identical,
    run_reference,
)

WINDOW_S = 10.0
HALFLIFE_S = 7.0


def make_samples(deltas_values):
    """Turn (dt, value) pairs into (t, value) with nondecreasing t."""
    t, samples = 0.0, []
    for dt, value in deltas_values:
        t += dt
        samples.append((t, value))
    return samples


def sample_events(samples):
    return [{"kind": "sample", "t": t, "v": v} for t, v in samples]


# Brute-force references, recomputed from scratch at query time.
def ewma_ref(samples, halflife_s):
    value, last_t = None, None
    for t, x in samples:
        if value is None:
            value = x
        else:
            decay = 0.5 ** ((t - last_t) / halflife_s)
            value = decay * value + (1.0 - decay) * x
        last_t = t
    return value


def window_values(samples, now, window_s):
    """Values inside the half-open window ``(now - window_s, now]``."""
    return [x for t, x in samples if now - window_s < t <= now]


def quantile_ref(values, q):
    """Numpy-style linear-interpolation quantile of a value list."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    lower = int(rank)
    frac = rank - lower
    if frac == 0.0 or lower + 1 >= len(ordered):
        return ordered[lower]
    return ordered[lower] + frac * (ordered[lower + 1] - ordered[lower])


SAMPLES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0 * WINDOW_S,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=60,
)


# ----------------------------------------------------------------------
# Property: streaming == brute-force recompute over the recorded trace
# ----------------------------------------------------------------------
class TestStreamingEqualsPostHoc:
    @settings(max_examples=60, deadline=None)
    @given(SAMPLES)
    def test_all_aggregates_match_recompute_from_recorded_trace(
        self, deltas_values
    ):
        monitor = StreamMonitor()
        monitor.ewma("ewma", kind="sample", field="v",
                     halflife_s=HALFLIFE_S)
        monitor.rate("rate", kind="sample", window_s=WINDOW_S)
        monitor.window_max("max", kind="sample", field="v",
                           window_s=WINDOW_S)
        monitor.quantile("median", kind="sample", field="v",
                         window_s=WINDOW_S, q=0.5)
        monitor.quantile("p90", kind="sample", field="v",
                         window_s=WINDOW_S, q=0.9)
        trace = MemoryRecorder()
        tee = TeeRecorder([trace, monitor])

        samples = make_samples(deltas_values)
        for event in sample_events(samples):
            tee.emit(event)

        # Recompute every aggregate post hoc from the recorded trace.
        recorded = [(e["t"], e["v"]) for e in trace.events]
        assert recorded == samples
        now = recorded[-1][0]
        windowed = window_values(recorded, now, WINDOW_S)

        assert monitor.value("ewma") == pytest.approx(
            ewma_ref(recorded, HALFLIFE_S), rel=1e-12, abs=1e-9
        )
        assert monitor.value("rate") == pytest.approx(
            len(windowed) / WINDOW_S
        )
        assert monitor.value("max") == max(windowed)
        for name, q in (("median", 0.5), ("p90", 0.9)):
            assert monitor.value(name) == pytest.approx(
                quantile_ref(windowed, q), rel=1e-9, abs=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(SAMPLES, st.floats(min_value=0.0, max_value=4.0 * WINDOW_S,
                              allow_nan=False, allow_infinity=False))
    def test_window_aggregates_after_quiet_period(
        self, deltas_values, quiet_s
    ):
        """Querying later than the last event drains the windows."""
        monitor = StreamMonitor()
        monitor.rate("rate", kind="sample", window_s=WINDOW_S)
        monitor.window_max("max", kind="sample", field="v",
                           window_s=WINDOW_S)
        monitor.quantile("median", kind="sample", field="v",
                         window_s=WINDOW_S, q=0.5)
        samples = make_samples(deltas_values)
        for event in sample_events(samples):
            monitor.emit(event)
        now = samples[-1][0] + quiet_s
        windowed = window_values(samples, now, WINDOW_S)
        assert monitor.value("rate", now=now) == pytest.approx(
            len(windowed) / WINDOW_S
        )
        if windowed:
            assert monitor.value("max", now=now) == max(windowed)
            assert monitor.value("median", now=now) == pytest.approx(
                quantile_ref(windowed, 0.5), rel=1e-9, abs=1e-9
            )
        else:
            assert monitor.value("max", now=now) is None
            assert monitor.value("median", now=now) is None


# ----------------------------------------------------------------------
# Aggregator unit behavior
# ----------------------------------------------------------------------
class TestAggregators:
    def test_ewma_halflife_is_a_halflife(self):
        ewma = Ewma(halflife_s=10.0)
        ewma.observe(0.0, 0.0)
        ewma.observe(10.0, 1.0)  # exactly one half-life later
        assert ewma.current() == pytest.approx(0.5)

    def test_ewma_zero_dt_sample_carries_zero_weight(self):
        ewma = Ewma(halflife_s=10.0)
        ewma.observe(5.0, 3.0)
        ewma.observe(5.0, 100.0)  # same instant: decay == 1.0
        assert ewma.current() == 3.0

    def test_ewma_empty_is_none(self):
        assert Ewma(halflife_s=1.0).current() is None

    def test_rolling_rate_window_is_half_open(self):
        rate = RollingRate(window_s=10.0)
        rate.observe(0.0)
        rate.observe(5.0)
        # The t=0 arrival sits exactly on the cutoff at now=10: evicted.
        assert rate.count(10.0) == 1
        assert rate.current(10.0) == pytest.approx(0.1)
        assert rate.count(15.0) == 0

    def test_window_max_handles_duplicates_and_eviction(self):
        wmax = WindowMax(window_s=10.0)
        wmax.observe(0.0, 5.0)
        wmax.observe(1.0, 5.0)
        wmax.observe(2.0, 3.0)
        assert wmax.current(2.0) == 5.0
        assert wmax.current(11.0) == 3.0  # both 5.0s evicted
        assert wmax.current(30.0) is None

    def test_window_quantile_interpolates(self):
        quant = WindowQuantile(window_s=100.0, q=0.5)
        for i, v in enumerate([1.0, 2.0, 3.0, 10.0]):
            quant.observe(float(i), v)
        assert quant.current(3.0) == pytest.approx(2.5)

    def test_window_quantile_extremes(self):
        low = WindowQuantile(window_s=100.0, q=0.0)
        high = WindowQuantile(window_s=100.0, q=1.0)
        for agg in (low, high):
            for i, v in enumerate([4.0, -2.0, 9.0]):
                agg.observe(float(i), v)
        assert low.current(2.0) == -2.0
        assert high.current(2.0) == 9.0
        assert low.current(500.0) is None

    @pytest.mark.parametrize("factory", [
        lambda: Ewma(0.0),
        lambda: Ewma(-1.0),
        lambda: RollingRate(0.0),
        lambda: WindowMax(-3.0),
        lambda: WindowQuantile(0.0, 0.5),
        lambda: WindowQuantile(10.0, -0.1),
        lambda: WindowQuantile(10.0, 1.5),
    ])
    def test_invalid_parameters_rejected(self, factory):
        with pytest.raises(ConfigurationError):
            factory()


# ----------------------------------------------------------------------
# StreamMonitor routing
# ----------------------------------------------------------------------
class TestStreamMonitor:
    def test_duplicate_probe_name_rejected(self):
        monitor = StreamMonitor()
        monitor.rate("x", kind="serve", window_s=1.0)
        with pytest.raises(ConfigurationError):
            monitor.ewma("x", kind="control", field="u", halflife_s=1.0)

    def test_unknown_probe_name_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamMonitor().value("nope")

    def test_no_data_yet_is_none(self):
        monitor = StreamMonitor()
        monitor.rate("r", kind="serve", window_s=1.0)
        assert monitor.value("r") is None

    def test_events_without_time_or_field_are_ignored(self):
        monitor = StreamMonitor()
        monitor.ewma("power", kind="control", field="observed_power_w",
                     halflife_s=1.0)
        monitor.emit({"kind": "engine_run", "digest": "abc"})  # no "t"
        monitor.emit({"kind": "control", "t": 1.0})  # field absent
        monitor.emit({"kind": "serve", "t": 2.0, "latency_s": 0.5})
        assert monitor.value("power") is None
        monitor.emit({"kind": "control", "t": 3.0,
                      "observed_power_w": 100.0})
        assert monitor.value("power") == 100.0

    def test_snapshot_carries_stream_section(self):
        monitor = StreamMonitor()
        monitor.rate("serves", kind="serve", window_s=10.0)
        monitor.emit({"kind": "serve", "t": 1.0})
        monitor.finalize(5.0)
        snapshot = monitor.observability_snapshot()
        assert snapshot == {"stream": {"serves": pytest.approx(0.1)}}
        assert StreamMonitor().observability_snapshot() is None

    def test_finalize_moves_the_query_frontier(self):
        monitor = StreamMonitor()
        monitor.rate("serves", kind="serve", window_s=10.0)
        monitor.emit({"kind": "serve", "t": 1.0})
        assert monitor.value("serves") == pytest.approx(0.1)
        monitor.finalize(100.0)  # window drains by the end of the run
        assert monitor.value("serves") == 0.0


# ----------------------------------------------------------------------
# TeeRecorder composition
# ----------------------------------------------------------------------
class TestTeeRecorder:
    def test_fans_out_in_child_order(self):
        a, b = MemoryRecorder(), MemoryRecorder()
        tee = TeeRecorder([a, b])
        tee.emit({"kind": "serve", "t": 1.0})
        assert a.events == b.events == [{"kind": "serve", "t": 1.0}]

    def test_disabled_children_are_skipped(self):
        memory = MemoryRecorder()
        tee = TeeRecorder([NullRecorder(), memory])
        assert tee.enabled
        tee.emit({"kind": "serve", "t": 1.0})
        assert len(memory) == 1

    def test_tee_of_disabled_children_is_disabled(self):
        assert TeeRecorder([NullRecorder()]).enabled is False
        assert TeeRecorder([]).enabled is False

    def test_wants_a_kind_iff_an_active_child_does(self):
        # A tee of kind-filtered sinks lets the simulator skip building
        # payloads of kinds every child would discard.
        tee = TeeRecorder([
            MemoryRecorder(kinds=["serve"]),
            MemoryRecorder(kinds=["control"]),
            NullRecorder(),
        ])
        assert tee.wants("serve") and tee.wants("control")
        assert not tee.wants("phase_start")
        unfiltered = TeeRecorder([MemoryRecorder(kinds=["serve"]),
                                  AlertEngine()])
        assert unfiltered.wants("phase_start")

    def test_snapshot_merges_dicts_keywise_later_child_wins(self):
        class Fake(MemoryRecorder):
            def __init__(self, snapshot):
                super().__init__()
                self._snapshot = snapshot

            def observability_snapshot(self):
                return self._snapshot

        tee = TeeRecorder([
            Fake({"stream": {"a": 1.0, "b": 2.0}, "scalar": "first"}),
            Fake(None),
            Fake({"stream": {"b": 9.0}, "scalar": "second"}),
        ])
        assert tee.observability_snapshot() == {
            "stream": {"a": 1.0, "b": 9.0},
            "scalar": "second",
        }
        assert TeeRecorder([MemoryRecorder()]) \
            .observability_snapshot() is None

    def test_close_closes_every_child_even_disabled(self, tmp_path):
        from repro.obs import JsonlRecorder

        sink = JsonlRecorder(str(tmp_path / "t.jsonl"))
        null = NullRecorder()
        tee = TeeRecorder([null, sink])
        tee.emit({"kind": "serve", "t": 1.0})
        tee.close()
        with pytest.raises(ConfigurationError):
            sink.emit({"kind": "serve", "t": 2.0})


# ----------------------------------------------------------------------
# Bit-identical parity with live monitoring attached
# ----------------------------------------------------------------------
def monitored_recorder():
    monitor = StreamMonitor()
    monitor.ewma("power_ewma_w", kind="control",
                 field="observed_power_w", halflife_s=60.0)
    monitor.quantile("util_p95", kind="control", field="utilization",
                     window_s=120.0, q=0.95)
    monitor.window_max("util_peak", kind="control", field="utilization",
                       window_s=120.0)
    monitor.rate("brake_rate", kind="brake_request", window_s=600.0)
    return TeeRecorder([MemoryRecorder(), monitor, AlertEngine()])


class TestLiveMonitoringParity:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_live_monitoring_is_bit_identical_to_bare(self, name):
        bare = run_reference(name)
        monitored = run_reference(name, recorder=monitored_recorder())
        assert_results_bit_identical(bare, monitored)
        obs = monitored.observability
        assert set(obs["stream"]) == {
            "brake_rate", "power_ewma_w", "util_p95", "util_peak",
        }
        assert obs["stream"]["power_ewma_w"] > 0
        assert isinstance(obs["incidents"], list)
        assert obs["alerts"]["opened"] == len(obs["incidents"])
        # The metrics sections are still the simulator's own.
        assert obs["counters"]["requests.served"] == monitored.total_served

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_filtered_monitoring_is_bit_identical_to_bare(self, name):
        bare = run_reference(name)
        filtered = run_reference(
            name, recorder=MemoryRecorder(kinds=["control"])
        )
        assert_results_bit_identical(bare, filtered)

    def test_recorder_snapshot_cannot_shadow_simulator_sections(self):
        class Hostile(MemoryRecorder):
            def observability_snapshot(self):
                return {"counters": {"fake": 1}, "custom": "kept"}

        result = run_reference("polca-default", recorder=Hostile())
        # The simulator's own counters win; novel keys merge in.
        assert "fake" not in result.observability["counters"]
        assert result.observability["custom"] == "kept"

    def test_snapshot_with_stream_survives_the_result_codec(self):
        import json

        from repro.exec import result_from_dict, result_to_dict

        result = run_reference(
            "nocap-power-scaled", recorder=monitored_recorder()
        )
        decoded = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert decoded.observability == result.observability
