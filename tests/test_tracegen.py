"""Production trace model, fluid cluster model, and synthetic traces."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.units import days
from repro.workloads.spec import WorkloadSpec
from repro.workloads.tracegen import (
    FluidClusterModel,
    INFERENCE_PROVISIONED_PER_SERVER_W,
    ProductionTraceModel,
    SyntheticTrace,
    SyntheticTraceGenerator,
    TRACE_WEEKS,
    _bin_rate,
    smooth_same,
)


@pytest.fixture(scope="module")
def fluid():
    return FluidClusterModel.for_table6()


class TestFluidModel:
    def test_power_monotone_in_utilization(self, fluid):
        rhos = np.linspace(0, 1, 21)
        powers = [fluid.power_at_utilization(float(r)) for r in rhos]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_inversion_roundtrip(self, fluid):
        for rho in (0.1, 0.4, 0.7, 0.95):
            power = fluid.power_at_utilization(rho)
            assert fluid.utilization_for_power(power) == pytest.approx(
                rho, abs=1e-6
            )

    def test_inversion_clips(self, fluid):
        assert fluid.utilization_for_power(0.0) == 0.0
        assert fluid.utilization_for_power(1e9) == 1.0

    def test_littles_law(self, fluid):
        rate = fluid.arrival_rate_for_utilization(0.5)
        expected = 0.5 * fluid.n_servers * fluid.concurrency \
            / fluid.mean_service_s
        assert rate == pytest.approx(expected)

    def test_occupancy_powers_increase(self, fluid):
        powers = fluid.occupancy_power_w
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_invalid_rho_rejected(self, fluid):
        with pytest.raises(ConfigurationError):
            fluid.power_at_utilization(1.5)
        with pytest.raises(ConfigurationError):
            fluid.arrival_rate_for_utilization(-0.1)

    def test_mean_service_time_plausible(self, fluid):
        """Table 6 requests on BLOOM take tens of seconds end to end."""
        assert 10.0 < fluid.mean_service_s < 120.0


class TestProductionTraceModel:
    def test_six_week_default(self):
        trace = ProductionTraceModel().generate(interval_s=3600.0)
        assert trace.duration == pytest.approx(
            days(7 * TRACE_WEEKS) - 3600.0, abs=1.0
        )

    def test_diurnal_structure(self):
        trace = ProductionTraceModel(seed=0).generate(
            duration_s=days(2), interval_s=300.0
        )
        one_day = int(86400 / 300)
        day1 = trace.values[:one_day]
        day2 = trace.values[one_day:2 * one_day]
        # Daily pattern repeats: peak hours align across days.
        assert abs(int(np.argmax(day1)) - int(np.argmax(day2))) < 24

    def test_utilization_stays_in_bounds(self):
        trace = ProductionTraceModel(seed=1).generate(duration_s=days(7))
        assert (trace.values > 0).all()
        assert (trace.values < 1.0).all()

    def test_smoothed_peak_below_des_peak_target(self):
        """The smoothed trace peaks below 79%; the DES adds prompt spikes
        on top to reach Table 4's 79%."""
        trace = ProductionTraceModel(seed=2).generate(duration_s=days(7))
        assert 0.62 < trace.peak() < 0.76

    def test_deterministic_per_seed(self):
        a = ProductionTraceModel(seed=9).generate(duration_s=days(1))
        b = ProductionTraceModel(seed=9).generate(duration_s=days(1))
        assert np.allclose(a.values, b.values)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ProductionTraceModel().generate(duration_s=0.0)

    def test_grid_never_samples_at_or_past_duration(self):
        # Regression: the old np.arange(0, duration, interval) grid
        # emits a bin at t >= duration on adversarial pairs (e.g.
        # duration = 3 * 0.1), padding the trace with one extra sample.
        trace = ProductionTraceModel(seed=0).generate(
            duration_s=3 * 0.1, interval_s=0.1
        )
        assert len(trace) == 3
        assert trace.times[-1] < 3 * 0.1


class TestSmoothSame:
    def test_constant_signal_stays_constant_everywhere(self):
        # Zero-padded mode="same" smoothing dragged the first and last
        # window//2 bins toward zero; overlap normalization must return
        # a constant unchanged, edges included.
        for n, window in [(50, 7), (10, 4), (5, 5), (3, 7)]:
            out = smooth_same(np.full(n, 3.25), window)
            assert out.shape == (n,)
            np.testing.assert_allclose(out, 3.25, rtol=1e-12)

    def test_interior_matches_plain_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64)
        window = 7
        plain = np.convolve(x, np.ones(window) / window, mode="same")
        out = smooth_same(x, window)
        interior = slice(window // 2, -(window // 2))
        np.testing.assert_allclose(out[interior], plain[interior])
        # ... and the edges differ (they are the fix).
        assert not np.allclose(out[0], plain[0])

    def test_window_one_is_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(smooth_same(x, 1), x)

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            smooth_same(np.ones(3), 0)


class TestPiecewiseRateProfile:
    def test_rate_clamps_outside_trace_window(self):
        rate = _bin_rate([1.0, 2.0, 3.0], start=0.0, interval_s=10.0)
        # Thinning can propose arrival candidates slightly before the
        # first bin or past the last; the lookup must clamp to the
        # nearest bin instead of indexing out of range.
        assert rate(-5.0) == 1.0
        assert rate(-1e9) == 1.0
        assert rate(25.0) == 3.0
        assert rate(30.0) == 3.0  # exactly past the last bin
        assert rate(1e9) == 3.0
        assert rate(10.0) == 2.0  # interior unaffected


class TestFluidMeanTokens:
    def test_non_integral_means_round_instead_of_floor(self):
        # Regression: int() floored non-integral mean token counts
        # (e.g. a (1, 2) range has mean 1.5), biasing service times low.
        mix = (
            WorkloadSpec(
                name="odd",
                prompt_range=(1, 2),      # mean 1.5 -> must round to 2
                output_range=(255, 256),  # mean 255.5 -> must round to 256
                share=1.0,
                high_priority_probability=0.0,
            ),
        )
        floored = FluidClusterModel.for_table6(
            mix=(
                WorkloadSpec(
                    name="floored",
                    prompt_range=(1, 1),
                    output_range=(255, 255),
                    share=1.0,
                    high_priority_probability=0.0,
                ),
            )
        )
        rounded = FluidClusterModel.for_table6(
            mix=(
                WorkloadSpec(
                    name="rounded",
                    prompt_range=(2, 2),
                    output_range=(256, 256),
                    share=1.0,
                    high_priority_probability=0.0,
                ),
            )
        )
        model = FluidClusterModel.for_table6(mix=mix)
        assert model.mean_service_s == rounded.mean_service_s
        assert model.mean_service_s != floored.mean_service_s


class TestSyntheticTraceGenerator:
    @pytest.fixture(scope="class")
    def synthetic(self):
        trace = ProductionTraceModel(seed=0).generate(
            duration_s=days(1), interval_s=300.0
        )
        return SyntheticTraceGenerator(seed=0).generate(trace)

    def test_mape_within_3pct(self, synthetic):
        """Section 6.4's acceptance criterion."""
        assert synthetic.mape <= 0.03
        synthetic.validate()  # must not raise

    def test_requests_sorted_by_arrival(self, synthetic):
        arrivals = [r.arrival_time for r in synthetic.requests]
        assert arrivals == sorted(arrivals)

    def test_request_volume_plausible(self, synthetic):
        # 40 servers x 4 slots, ~30 s mean service, modest slot load.
        per_second = len(synthetic.requests) / days(1)
        assert 0.4 < per_second < 6.0

    def test_reconstruction_same_length_as_target(self, synthetic):
        assert len(synthetic.reconstructed_power) == len(synthetic.target_power)

    def test_validate_rejects_bad_mape(self, synthetic):
        bad = SyntheticTrace(
            requests=synthetic.requests,
            target_power=synthetic.target_power,
            reconstructed_power=synthetic.reconstructed_power,
            mape=0.10,
        )
        with pytest.raises(TraceError):
            bad.validate()

    def test_empty_trace_rejected(self):
        from repro.analysis.timeseries import TimeSeries
        generator = SyntheticTraceGenerator()
        empty = TimeSeries(start=0, interval=300, values=np.empty(0))
        with pytest.raises(ConfigurationError):
            generator.generate(empty)

    def test_provisioning_constant(self):
        generator = SyntheticTraceGenerator(n_servers=40)
        assert generator.provisioned_power_w == \
            40 * INFERENCE_PROVISIONED_PER_SERVER_W
