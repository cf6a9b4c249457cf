"""Telemetry interfaces: delay, noise, the row reading, catalog (Table 1)."""

import pytest

from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.control.actions import ControlAction
from repro.core.baselines import NoCapPolicy
from repro.errors import ConfigurationError
from repro.faults.plan import ActuationFaultSpec, FaultPlan
from repro.telemetry.base import SampledInterface
from repro.telemetry.dcgm import DCGM_OVERHEAD_W, DcgmMonitor
from repro.telemetry.ipmi import IpmiMonitor
from repro.telemetry.registry import INTERFACE_CATALOG
from repro.telemetry.row_manager import ROW_TELEMETRY_INTERVAL_S, RowManager
from repro.telemetry.smbpbi import (
    SMBPBI_ACTUATION_LATENCY_S,
    SmbpbiInterface,
)
from repro.workloads.requests import RequestSampler


class TestSampledInterface:
    def test_read_applies_delay(self):
        iface = SampledInterface(name="x", interval=1.0, in_band=True,
                                 delay=0.5)
        assert iface.observe(10.0, 42.0) == (10.5, 42.0)

    def test_noise_is_multiplicative_and_seeded(self):
        a = SampledInterface(name="x", interval=1.0, in_band=True,
                             noise_std=0.05, seed=1)
        b = SampledInterface(name="x", interval=1.0, in_band=True,
                             noise_std=0.05, seed=1)
        _, va = a.observe(0.0, 100.0)
        _, vb = b.observe(0.0, 100.0)
        assert va == vb
        assert va != 100.0
        assert a.observe(2.0, 0.0) == (2.0, 0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SampledInterface(name="x", interval=0.0, in_band=True)
        with pytest.raises(ConfigurationError):
            SampledInterface(name="x", interval=1.0, in_band=True, delay=-1)


class TestDcgm:
    def test_paper_interval_and_overhead(self):
        monitor = DcgmMonitor()
        assert monitor.interval == 0.1
        assert monitor.in_band
        assert 5.0 <= DCGM_OVERHEAD_W <= 10.0  # Section 3.4: "5-10W"


class TestIpmi:
    def test_out_of_band_seconds_scale(self):
        monitor = IpmiMonitor()
        assert not monitor.in_band
        assert 1.0 <= monitor.interval <= 5.0


class TestSmbpbi:
    def test_table2_latencies(self):
        iface = SmbpbiInterface()
        assert iface.interval >= 5.0
        assert SMBPBI_ACTUATION_LATENCY_S == 40.0

    def test_command_lands_after_latency(self):
        """The simulator's frequency caps take SMBPBI's 40 s to land."""
        assert ClusterConfig().oob_latency_s == SMBPBI_ACTUATION_LATENCY_S
        actuator = ClusterSimulator(
            ClusterConfig(n_base_servers=4), NoCapPolicy()
        )._build_actuator(FaultPlan.none())
        record = actuator.issue(
            0.0, ControlAction.frequency_lock(frozenset({"s0"}), 1275.0)
        )
        assert record.effective_at == SMBPBI_ACTUATION_LATENCY_S

    def test_invalid_failure_rate_rejected(self):
        """The OOB path's silent-failure rate is set by the fault plan."""
        with pytest.raises(ConfigurationError):
            ActuationFaultSpec(silent_failure_rate=1.0)


class TestRowManager:
    def test_paper_interval(self):
        assert RowManager().interval == ROW_TELEMETRY_INTERVAL_S == 2.0
        assert ClusterConfig().telemetry_interval_s == ROW_TELEMETRY_INTERVAL_S

    def test_aggregation_sums_servers(self):
        """The simulated row reads the sum of its servers' power."""
        sampler = RequestSampler(seed=0)
        requests = sampler.sample_many([0.5 * i for i in range(1, 400)])
        core = ClusterSimulator(
            ClusterConfig(n_base_servers=4), NoCapPolicy()
        ).start(requests, 300.0)
        checked = []

        def check(t, core):
            assert core.row_power == pytest.approx(sum(core.server_power))
            checked.append(core.row_power)

        core.run_all(checkpoint_epoch_s=30.0, checkpoint_cb=check)
        assert len(checked) == 9
        assert max(checked) > min(checked)  # the load moved the row

    def test_empty_row_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_base_servers=0)


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
