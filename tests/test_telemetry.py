"""Telemetry interfaces: sampling, delay, noise, catalog (Table 1)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TelemetryError
from repro.telemetry.base import SampledInterface
from repro.telemetry.dcgm import DCGM_OVERHEAD_W, DcgmMonitor
from repro.telemetry.ipmi import IpmiMonitor
from repro.telemetry.registry import INTERFACE_CATALOG
from repro.telemetry.row_manager import ROW_TELEMETRY_INTERVAL_S, RowManager
from repro.telemetry.smbpbi import (
    SMBPBI_ACTUATION_LATENCY_S,
    SmbpbiInterface,
)


class TestSampledInterface:
    def test_read_applies_delay(self):
        iface = SampledInterface(name="x", interval=1.0, in_band=True,
                                 delay=0.5)
        sample = iface.read(10.0, lambda t: 42.0)
        assert sample.sampled_at == 10.0
        assert sample.time == 10.5
        assert sample.value == 42.0

    def test_noise_is_multiplicative_and_seeded(self):
        a = SampledInterface(name="x", interval=1.0, in_band=True,
                             noise_std=0.05, seed=1)
        b = SampledInterface(name="x", interval=1.0, in_band=True,
                             noise_std=0.05, seed=1)
        va = a.read(0.0, lambda t: 100.0).value
        vb = b.read(0.0, lambda t: 100.0).value
        assert va == vb
        assert va != 100.0

    def test_sample_series_interval(self):
        iface = SampledInterface(name="x", interval=0.5, in_band=True)
        series = iface.sample_series(lambda t: t, 0.0, 2.0)
        assert len(series) == 4
        assert series.interval == 0.5

    def test_empty_window_rejected(self):
        iface = SampledInterface(name="x", interval=0.5, in_band=True)
        with pytest.raises(TelemetryError):
            iface.sample_series(lambda t: t, 1.0, 1.0)

    def test_sample_series_never_samples_at_or_past_end(self):
        # Regression: the old np.arange(start, end, interval) grid emits
        # a reading at t >= end on adversarial windows — e.g.
        # arange(0, 3 * 0.1, 0.1) yields a fourth sample at 0.3 — so the
        # series leaked one out-of-window observation.
        iface = SampledInterface(name="x", interval=0.1, in_band=True)
        for start, end in [(0.0, 3 * 0.1), (1.0, 1.3), (0.0, 7 * 0.2)]:
            series = iface.sample_series(lambda t: t, start, end)
            assert series.times[-1] < end, (start, end)
        assert len(iface.sample_series(lambda t: t, 0.0, 3 * 0.1)) == 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SampledInterface(name="x", interval=0.0, in_band=True)
        with pytest.raises(ConfigurationError):
            SampledInterface(name="x", interval=1.0, in_band=True, delay=-1)

    def test_observe_matches_read_on_a_twin(self):
        def twin():
            return SampledInterface(name="x", interval=2.0, in_band=False,
                                    delay=0.75, noise_std=0.05, seed=9)

        observed, sampled = twin(), twin()
        for step, level in enumerate([310.5, 310.5, 298.25, 0.0, 1234.0]):
            now = 2.0 * step
            sample = sampled.read(now, lambda t, level=level: level)
            assert observed.observe(now, level) == (sample.time, sample.value)
            assert sample.sampled_at == now
        assert sample.time == 8.75
        assert (observed._rng.bit_generator.state
                == sampled._rng.bit_generator.state)


class TestDcgm:
    def test_paper_interval_and_overhead(self):
        monitor = DcgmMonitor()
        assert monitor.interval == 0.1
        assert monitor.in_band
        assert 5.0 <= DCGM_OVERHEAD_W <= 10.0  # Section 3.4: "5-10W"

    def test_counter_series_share_clock(self):
        monitor = DcgmMonitor(noise_std=0.0)
        series = monitor.counter_series(
            {"power": lambda t: 300.0, "sm": lambda t: 80.0}, 0.0, 1.0
        )
        assert set(series) == {"power", "sm"}
        assert len(series["power"]) == len(series["sm"])

    def test_zero_counters_rejected(self):
        with pytest.raises(ConfigurationError):
            DcgmMonitor().counter_series({}, 0.0, 1.0)


class TestIpmi:
    def test_out_of_band_seconds_scale(self):
        monitor = IpmiMonitor()
        assert not monitor.in_band
        assert 1.0 <= monitor.interval <= 5.0

    def test_validation_accepts_consistent_series(self):
        ipmi = IpmiMonitor(noise_std=0.0)
        dcgm = DcgmMonitor(noise_std=0.0)
        gpu = dcgm.sample_series(lambda t: 2400.0, 0.0, 30.0)
        server = ipmi.sample_series(lambda t: 2400.0 + 1400.0, 0.0, 30.0)
        assert ipmi.validate(server, gpu, host_floor_w=1000.0,
                             host_ceiling_w=2000.0)

    def test_validation_rejects_impossible_residual(self):
        ipmi = IpmiMonitor(noise_std=0.0)
        dcgm = DcgmMonitor(noise_std=0.0)
        gpu = dcgm.sample_series(lambda t: 2400.0, 0.0, 30.0)
        server = ipmi.sample_series(lambda t: 2500.0, 0.0, 30.0)
        assert not ipmi.validate(server, gpu, host_floor_w=1000.0,
                                 host_ceiling_w=2000.0)

    def test_validation_rejects_empty(self):
        ipmi = IpmiMonitor()
        from repro.analysis.timeseries import TimeSeries
        empty = TimeSeries(start=0, interval=1, values=np.empty(0))
        with pytest.raises(TelemetryError):
            ipmi.validate(empty, empty, 0, 1)


class TestSmbpbi:
    def test_table2_latencies(self):
        iface = SmbpbiInterface()
        assert iface.interval >= 5.0
        assert SMBPBI_ACTUATION_LATENCY_S == 40.0

    def test_command_lands_after_latency(self):
        iface = SmbpbiInterface(silent_failure_rate=0.0)
        iface.issue(0.0, "frequency_cap", 1275.0, "gpu0")
        assert iface.effective_commands(39.0) == []
        landed = iface.effective_commands(40.0)
        assert len(landed) == 1
        assert landed[0].value == 1275.0
        assert iface.pending_count == 0

    def test_silent_failures_drop_commands(self):
        iface = SmbpbiInterface(silent_failure_rate=0.5, seed=3)
        commands = [
            iface.issue(0.0, "power_cap", 300.0, f"gpu{i}")
            for i in range(200)
        ]
        failed = sum(1 for c in commands if c.failed_silently)
        assert 50 < failed < 150
        assert iface.pending_count == 200 - failed

    def test_invalid_failure_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            SmbpbiInterface(silent_failure_rate=1.0)


class TestRowManager:
    def test_paper_interval(self):
        assert RowManager().interval == ROW_TELEMETRY_INTERVAL_S == 2.0

    def test_aggregation_sums_servers(self):
        manager = RowManager(noise_std=0.0)
        signals = [lambda t: 5000.0, lambda t: 4000.0]
        series = manager.row_power_series(signals, 0.0, 10.0)
        assert np.allclose(series.values, 9000.0)

    def test_empty_row_rejected(self):
        with pytest.raises(TelemetryError):
            RowManager().aggregate_signal([])


class TestCatalog:
    def test_table1_rows_present(self):
        assert set(INTERFACE_CATALOG) == {
            "RAPL", "DCGM", "SMBPBI", "IPMI", "RowManager",
        }

    def test_paths_match_table1(self):
        assert INTERFACE_CATALOG["RAPL"].path == "IB"
        assert INTERFACE_CATALOG["DCGM"].path == "IB"
        assert INTERFACE_CATALOG["SMBPBI"].path == "OOB"
        assert INTERFACE_CATALOG["IPMI"].path == "OOB"
        assert INTERFACE_CATALOG["RowManager"].path == "OOB"

    def test_rapl_is_fastest_smbpbi_slowest(self):
        fastest = min(INTERFACE_CATALOG.values(),
                      key=lambda i: i.interval_seconds[0])
        slowest = max(INTERFACE_CATALOG.values(),
                      key=lambda i: i.interval_seconds[0])
        assert fastest.mechanism == "RAPL"
        assert slowest.mechanism == "SMBPBI"

    def test_simulated_interfaces_respect_catalog(self):
        lo, hi = INTERFACE_CATALOG["DCGM"].interval_seconds
        assert lo <= DcgmMonitor().interval <= hi
        lo, hi = INTERFACE_CATALOG["IPMI"].interval_seconds
        assert lo <= IpmiMonitor().interval <= hi
        lo, hi = INTERFACE_CATALOG["SMBPBI"].interval_seconds
        assert lo <= SmbpbiInterface().interval <= hi
