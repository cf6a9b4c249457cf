"""Second extension wave: phase splitting, workload-aware caps, the
POLCA control loop on scripted readings, and the beyond-LLMs vision
workload."""

import pytest

from repro.cluster.policy_base import GroupCaps
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.policy import DualThresholdPolicy
from repro.core.splitting import (
    plan_split_deployment,
    plan_unsplit_deployment,
    split_power_saving,
)
from repro.core.workload_aware import (
    deepest_safe_cap,
    latency_stretch,
    uniform_vs_aware_reclaim,
    workload_aware_plan,
)
from repro.errors import ConfigurationError
from repro.faults.plan import ActuationFaultSpec, FaultPlan
from repro.models.vision import VisionServingModel
from repro.obs.recorder import MemoryRecorder
from repro.workloads.spec import SEARCH, SUMMARIZE, Priority


class TestPhaseSplitting:
    def test_split_saves_provisioned_power(self):
        """Section 5.2's payoff: only the token pool needs capping, so
        the split deployment provisions less power for the same load."""
        saving = split_power_saving()
        assert 0.10 < saving < 0.40

    def test_transfer_overhead_is_sub_second(self):
        """'Promising given the high-bandwidth Infiniband interconnects'
        — KV transfer is a small fraction of a multi-second request."""
        deployment = plan_split_deployment()
        assert 0.0 < deployment.transfer_seconds < 1.0
        assert deployment.latency_increase < 0.15

    def test_pools_scale_with_load(self):
        small = plan_split_deployment(request_rate=1.0)
        large = plan_split_deployment(request_rate=4.0)
        assert large.total_servers > small.total_servers
        assert large.provisioned_power_w > small.provisioned_power_w

    def test_token_pool_dominates_server_count(self):
        """Decode time >> prompt time, so the token pool is bigger."""
        deployment = plan_split_deployment()
        assert deployment.token_servers > deployment.prompt_servers

    def test_unsplit_has_no_transfer(self):
        deployment = plan_unsplit_deployment()
        assert deployment.transfer_seconds == 0.0
        assert deployment.token_servers == 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_split_deployment(request_rate=0.0)
        with pytest.raises(ConfigurationError):
            plan_unsplit_deployment(request_rate=-1.0)


class TestWorkloadAware:
    def test_stretch_zero_at_max_clock(self):
        assert latency_stretch(SEARCH, 1410.0) == pytest.approx(0.0)

    def test_stretch_grows_as_clock_drops(self):
        assert latency_stretch(SEARCH, 1110.0) > latency_stretch(
            SEARCH, 1275.0
        )

    def test_deepest_cap_respects_budget(self):
        plan = deepest_safe_cap(SUMMARIZE, slo_budget=0.05)
        assert plan.latency_stretch <= 0.05
        deeper_stretch = latency_stretch(
            SUMMARIZE, plan.cap_clock_mhz - 45.0
        ) if plan.cap_clock_mhz > 1110.0 else 1.0
        assert deeper_stretch > 0.05 or plan.cap_clock_mhz == 1110.0

    def test_tight_budget_means_shallow_cap(self):
        tight = deepest_safe_cap(SEARCH, slo_budget=0.01)
        loose = deepest_safe_cap(SEARCH, slo_budget=0.10)
        assert tight.cap_clock_mhz >= loose.cap_clock_mhz

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            deepest_safe_cap(SEARCH, slo_budget=-0.01)

    def test_plan_covers_the_mix(self):
        plans = workload_aware_plan()
        assert set(plans) == {"Summarize", "Search", "Chat"}
        # Low-priority Summarize tolerates a deeper cap than Search.
        assert plans["Summarize"].cap_clock_mhz <= \
            plans["Search"].cap_clock_mhz

    def test_aware_reclaims_more_than_uniform(self):
        """Section 6.7's claim: workload-specific profiles get more
        power savings at the same SLO impact."""
        comparison = uniform_vs_aware_reclaim()
        assert comparison["aware_reclaim"] >= comparison["uniform_reclaim"]
        assert comparison["aware_reclaim"] > 0.0


class TestPolcaControlLoop:
    """The POLCA control loop (Figure 12) the simulator runs: scripted
    2-second row readings in, per-group OOB commands out."""

    PROVISIONED_W = 200_000.0

    def run_loop(self, signal, duration_s, plan=None, **overrides):
        """Run a 4-server row whose telemetry reads ``signal(t)``.

        Returns the core and its command issues, in issue order.
        """
        config = ClusterConfig(
            n_base_servers=4,
            provisioned_per_server_w=self.PROVISIONED_W / 4,
            fault_plan=plan,
            **overrides,
        )
        recorder = MemoryRecorder(kinds=("cap_issue", "brake_issue"))
        simulator = ClusterSimulator(
            config, DualThresholdPolicy(), recorder=recorder
        )
        core = simulator.start([], duration_s)
        while core.queue:
            now, event = core.queue.pop()
            if event[0] == "tick":
                # The row reads the script, not its idle servers.
                core.row_power = signal(now)
            core._process(now, event)
        return core, recorder.events

    def test_quiet_signal_issues_nothing(self):
        core, issued = self.run_loop(lambda t: 100_000.0, 60.0)
        assert issued == []
        assert core.commanded == GroupCaps.uncapped()

    def test_t1_crossing_caps_low_priority(self):
        core, issued = self.run_loop(lambda t: 165_000.0, 10.0)
        assert len(issued) == 1
        assert issued[0]["kind"] == "cap_issue"
        assert issued[0]["priority"] == "low"
        assert issued[0]["clock_mhz"] == 1275.0
        assert core.commanded == GroupCaps(low_clock_mhz=1275.0)

    def test_deduplicates_repeat_commands(self):
        _, issued = self.run_loop(lambda t: 165_000.0, 120.0)
        assert len(issued) == 1  # commanded once despite 60 readings

    def test_uncap_after_power_recedes(self):
        def signal(t):
            return 165_000.0 if t < 60.0 else 120_000.0  # 0.825 -> 0.60

        core, issued = self.run_loop(signal, 200.0)
        assert [(e["priority"], e["clock_mhz"]) for e in issued] == [
            ("low", 1275.0), ("low", None),
        ]
        assert core.commanded == GroupCaps.uncapped()

    def test_brake_on_breaker_threat(self):
        core, issued = self.run_loop(lambda t: 205_000.0, 10.0)
        assert [e["want_on"] for e in issued
                if e["kind"] == "brake_issue"] == [True]
        assert core.brake_state == "on"
        assert core.brake_events == 1

    def test_brake_releases(self):
        """The brake holds ``brake_hold_s``, then releases once power
        has receded."""
        def signal(t):
            return 205_000.0 if t < 20.0 else 150_000.0

        core, issued = self.run_loop(signal, 120.0)
        brakes = [e for e in issued if e["kind"] == "brake_issue"]
        assert [e["want_on"] for e in brakes] == [True, False]
        assert brakes[1]["t"] - brakes[0]["t"] >= core.config.brake_hold_s
        assert core.brake_state == "off"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(provisioned_per_server_w=0.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(oob_latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(brake_hold_s=-1.0)

    def test_refresh_guardrail_reissues_caps(self):
        """Section 3.3: OOB commands can be silently dropped, so the
        loop verifies each one and re-issues it when it did not land."""
        plan = FaultPlan(
            actuation=ActuationFaultSpec(silent_failure_rate=0.7), seed=1
        )
        core, issued = self.run_loop(lambda t: 165_000.0, 600.0, plan)
        assert len(issued) >= 2
        # Re-issued after each drop, and no more once one has landed.
        assert [e["silent"] for e in issued] == \
            [True] * (len(issued) - 1) + [False]
        assert [e["attempts"] for e in issued] == list(range(len(issued)))
        assert all(e["clock_mhz"] == 1275.0 for e in issued)
        assert core.report.reissues == len(issued) - 1

    def test_refresh_survives_silent_failure(self):
        """A dropped cap is repaired by a re-issue."""
        plan = FaultPlan(
            actuation=ActuationFaultSpec(silent_failure_rate=0.7), seed=1
        )
        core, issued = self.run_loop(lambda t: 165_000.0, 1200.0, plan)
        # Despite 70% silent loss, the cap landed on the low group.
        assert any(e["silent"] for e in issued)
        for index in core._index_by_priority[Priority.LOW]:
            assert core.servers[index].clock_ratio == \
                pytest.approx(1275.0 / 1410.0)
        assert core.report.commands_unrecovered == 0

    def test_refresh_idle_when_uncapped(self):
        plan = FaultPlan(
            actuation=ActuationFaultSpec(silent_failure_rate=0.7), seed=1
        )
        core, issued = self.run_loop(lambda t: 100_000.0, 400.0, plan)
        assert issued == []
        assert core.report.commands_issued == 0


class TestVisionWorkload:
    def test_stable_power(self):
        """Section 6.7: vision inference has no phase structure."""
        model = VisionServingModel()
        assert model.power_stability() == 1.0

    def test_power_below_llm_prompt_spikes(self):
        model = VisionServingModel()
        assert model.power() < 400.0  # below TDP, no spikes

    def test_frequency_lever_still_works(self):
        """'They can still reclaim power from frequency scaling for small
        performance loss.'"""
        tradeoff = VisionServingModel().frequency_tradeoff(1100.0)
        assert tradeoff["power_reduction"] > tradeoff["performance_reduction"]
        assert tradeoff["power_reduction"] > 0.15

    def test_latency_scaling(self):
        model = VisionServingModel()
        assert model.latency(0.5) < 2 * model.latency(1.0)
        assert model.latency(0.5) > model.latency(1.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            VisionServingModel(activity=0.0)
        with pytest.raises(ConfigurationError):
            VisionServingModel(base_latency_s=0.0)
        with pytest.raises(ConfigurationError):
            VisionServingModel().latency(0.0)
