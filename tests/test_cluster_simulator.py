"""The discrete-event cluster simulator."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy
from repro.core.policy import DualThresholdPolicy
from repro.errors import ConfigurationError
from repro.workloads.requests import RequestSampler
from repro.workloads.spec import Priority


def make_requests(rate_per_s, duration_s, seed=0):
    """A simple homogeneous-Poisson request trace."""
    rng = np.random.default_rng(seed)
    sampler = RequestSampler(seed=seed)
    t, arrivals = 0.0, []
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= duration_s:
            break
        arrivals.append(t)
    return sampler.sample_many(arrivals)


def small_config(**overrides):
    defaults = dict(n_base_servers=8, telemetry_interval_s=2.0, seed=0)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestClusterConfig:
    def test_added_fraction_math(self):
        config = ClusterConfig(n_base_servers=40, added_fraction=0.30)
        assert config.n_servers == 52

    def test_budget_fixed_at_base(self):
        base = ClusterConfig(n_base_servers=40, added_fraction=0.0)
        over = ClusterConfig(n_base_servers=40, added_fraction=0.30)
        assert over.provisioned_power_w == base.provisioned_power_w

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_base_servers=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(added_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            ClusterConfig(telemetry_interval_s=0.0)


class TestBasicRuns:
    def test_all_requests_served_under_light_load(self):
        simulator = ClusterSimulator(small_config(), NoCapPolicy())
        requests = make_requests(rate_per_s=0.2, duration_s=600.0)
        result = simulator.run(requests, 600.0)
        total_served = sum(m.served for m in result.per_priority.values())
        total_dropped = sum(m.dropped for m in result.per_priority.values())
        assert total_served == len(requests)
        assert total_dropped == 0

    def test_latencies_at_least_service_time(self):
        simulator = ClusterSimulator(small_config(), NoCapPolicy())
        requests = make_requests(rate_per_s=0.1, duration_s=600.0)
        result = simulator.run(requests, 600.0)
        for metrics in result.per_priority.values():
            assert all(latency > 1.0 for latency in metrics.latencies)

    def test_power_series_sampled_at_telemetry_interval(self):
        simulator = ClusterSimulator(small_config(), NoCapPolicy())
        result = simulator.run(make_requests(0.1, 100.0), 100.0)
        assert result.power_series.interval == 2.0
        assert len(result.power_series) == 50

    def test_power_never_below_idle_floor(self):
        simulator = ClusterSimulator(small_config(), NoCapPolicy())
        result = simulator.run(make_requests(0.1, 200.0), 200.0)
        idle_floor = 8 * simulator.servers[0].power_model.server_power(0.0, 1.0)
        assert result.power_series.trough() >= idle_floor - 1e-6

    def test_deterministic_for_seed(self):
        a = ClusterSimulator(small_config(), NoCapPolicy()).run(
            make_requests(0.2, 300.0, seed=1), 300.0
        )
        b = ClusterSimulator(small_config(), NoCapPolicy()).run(
            make_requests(0.2, 300.0, seed=1), 300.0
        )
        assert a.power_series.values.tolist() == b.power_series.values.tolist()
        assert a.latency_summary(Priority.HIGH).p50 == \
            b.latency_summary(Priority.HIGH).p50

    def test_invalid_duration_rejected(self):
        simulator = ClusterSimulator(small_config(), NoCapPolicy())
        with pytest.raises(ConfigurationError):
            simulator.run([], 0.0)

    def test_saturated_pool_drops(self):
        simulator = ClusterSimulator(small_config(), NoCapPolicy())
        requests = make_requests(rate_per_s=5.0, duration_s=300.0)
        result = simulator.run(requests, 300.0)
        dropped = sum(m.dropped for m in result.per_priority.values())
        assert dropped > 0


class _AlwaysCapLow(PowerPolicy):
    """Test policy: caps the low-priority pool from the first tick."""

    name = "always-cap-low"

    def desired_caps(self, utilization, now=0.0):
        return GroupCaps(low_clock_mhz=1110.0)


class _BrakeHappy(PowerPolicy):
    """Test policy: demands the brake at any utilization."""

    name = "brake-happy"
    brake_threshold = 0.0

    def desired_caps(self, utilization, now=0.0):
        return GroupCaps.uncapped()

    def wants_brake(self, utilization):
        return True

    def brake_release_ok(self, utilization):
        return False


class TestPolicyInteraction:
    def test_caps_land_after_oob_latency(self):
        """The cap is issued at t=0 but power only falls after ~40 s."""
        simulator = ClusterSimulator(small_config(), _AlwaysCapLow())
        requests = make_requests(rate_per_s=1.0, duration_s=300.0)
        result = simulator.run(requests, 300.0)
        assert result.capping_actions == 1
        # Compare per-tick power before and after the cap lands: the LP
        # half of the row slows down, so early power >= later power at
        # equal load is hard to assert directly; instead check latency
        # impact exists for LP but not HP.
        uncapped = ClusterSimulator(small_config(), NoCapPolicy()).run(
            requests, 300.0
        )
        lp_ratio = (result.latency_summary(Priority.LOW).p50
                    / uncapped.latency_summary(Priority.LOW).p50)
        hp_ratio = (result.latency_summary(Priority.HIGH).p50
                    / uncapped.latency_summary(Priority.HIGH).p50)
        assert lp_ratio > 1.01
        assert hp_ratio == pytest.approx(1.0, abs=0.01)

    def test_brake_engages_and_counts_once(self):
        simulator = ClusterSimulator(small_config(), _BrakeHappy())
        requests = make_requests(rate_per_s=0.5, duration_s=120.0)
        result = simulator.run(requests, 120.0)
        assert result.power_brake_events == 1  # never released, one event

    def test_brake_slows_everything(self):
        braked = ClusterSimulator(small_config(), _BrakeHappy()).run(
            make_requests(0.3, 200.0), 200.0
        )
        free = ClusterSimulator(small_config(), NoCapPolicy()).run(
            make_requests(0.3, 200.0), 200.0
        )
        # At 288 MHz the token phase stretches ~1.7x (its clock
        # sensitivity is 0.18), so end-to-end p50 rises well above 1.5x.
        assert braked.latency_summary(Priority.HIGH).p50 > \
            1.5 * free.latency_summary(Priority.HIGH).p50


class _FreshCapsPolca(DualThresholdPolicy):
    """POLCA returning a fresh, equal ``GroupCaps`` object on every tick."""

    def desired_caps(self, utilization, now=0.0):
        return dataclasses.replace(super().desired_caps(utilization, now))


class TestCapDeduplication:
    def test_caps_deduplicate_by_value_not_identity(self):
        # The simulator skips re-commanding caps it already commanded.
        # A policy that builds new but equal caps every tick must issue
        # exactly the commands of one that hands back shared instances.
        fresh_policy = _FreshCapsPolca()
        assert fresh_policy.desired_caps(0.5) \
            is not fresh_policy.desired_caps(0.5)
        fresh_policy.reset()
        requests = make_requests(rate_per_s=1.0, duration_s=1200.0)
        config = small_config(added_fraction=0.3)
        plain = ClusterSimulator(config, DualThresholdPolicy()).run(
            requests, 1200.0
        )
        fresh = ClusterSimulator(config, fresh_policy).run(requests, 1200.0)
        assert plain.capping_actions > 10
        assert plain.power_brake_events > 0
        assert fresh.capping_actions == plain.capping_actions
        assert fresh.power_brake_events == plain.power_brake_events
        np.testing.assert_array_equal(
            fresh.power_series.values, plain.power_series.values
        )
        assert fresh.total_energy_j == plain.total_energy_j
