"""The fault-injection layer: plans, injector, hardened control loop.

Covers the tentpole guarantees of the robustness work:

* an all-zeros plan leaves the rewired simulator bit-identical to the
  fault-free path;
* telemetry dropout triggers the safe-cap fallback and, past the UPS
  deadline, the brake;
* silent actuation failures are detected by the verify layer and
  recovered by capped-backoff re-issue;
* server churn drops in-flight work, removes power, and recovers;
* the brake state machine cancels a pending release on a spike
  (the re-engage race fix).
"""

import numpy as np
import pytest

from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy
from repro.core.policy import DualThresholdPolicy
from repro.errors import ConfigurationError
from repro.faults import (
    ActuationFaultSpec,
    ChurnSpec,
    FaultInjector,
    FaultPlan,
    OverBudgetTracker,
    ReliabilityConfig,
    ServerChurnEvent,
    TelemetryFate,
    TelemetryFaultSpec,
)
from repro.workloads.requests import RequestSampler
from repro.workloads.spec import Priority


def make_requests(rate_per_s, duration_s, seed=0):
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


# ----------------------------------------------------------------------
# Plan validation and presets
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_none_is_trivial(self):
        assert FaultPlan.none().is_trivial

    def test_adversarial_is_not_trivial(self):
        plan = FaultPlan.adversarial()
        assert not plan.is_trivial
        assert plan.actuation.silent_failure_rate == pytest.approx(0.10)
        assert plan.churn.events

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetryFaultSpec(dropout_windows=((10.0, 5.0),))
        with pytest.raises(ConfigurationError):
            TelemetryFaultSpec(dropout_windows=((-1.0, 5.0),))

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            TelemetryFaultSpec(noise_std=-0.1)
        with pytest.raises(ConfigurationError):
            ActuationFaultSpec(silent_failure_rate=1.0)
        with pytest.raises(ConfigurationError):
            ActuationFaultSpec(delay_prob=1.5)
        with pytest.raises(ConfigurationError):
            ChurnSpec(failures_per_hour=-1.0)

    def test_invalid_churn_event_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerChurnEvent(server_index=-1, fail_at_s=0.0)
        with pytest.raises(ConfigurationError):
            ServerChurnEvent(server_index=0, fail_at_s=10.0, recover_at_s=5.0)


class TestReliabilityConfig:
    def test_backoff_is_capped_exponential(self):
        reliability = ReliabilityConfig(retry_base_s=2.0, retry_cap_s=32.0)
        assert [reliability.backoff_s(k) for k in range(1, 7)] == \
            [2.0, 4.0, 8.0, 16.0, 32.0, 32.0]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(retry_base_s=0.0)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(retry_cap_s=1.0, retry_base_s=2.0)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(fallback_after_ticks=0)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig().backoff_s(0)


class TestClusterConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(low_priority_fraction=-0.1),
        dict(low_priority_fraction=1.1),
        dict(power_scale=0.0),
        dict(power_scale=-1.0),
        dict(brake_latency_s=-1.0),
        dict(brake_hold_s=-1.0),
        dict(oob_latency_s=-1.0),
        dict(provisioned_per_server_w=0.0),
    ])
    def test_invalid_fields_named(self, overrides):
        with pytest.raises(ConfigurationError) as excinfo:
            ClusterConfig(**overrides)
        (field_name,) = overrides
        assert field_name in str(excinfo.value)


# ----------------------------------------------------------------------
# Injector schedules
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_window_fate_lookup(self):
        plan = FaultPlan(telemetry=TelemetryFaultSpec(
            dropout_windows=((10.0, 20.0),),
            freeze_windows=((30.0, 40.0),),
        ))
        injector = FaultInjector(plan, duration_s=100.0, n_servers=4)
        assert injector.telemetry_fate(5.0) is TelemetryFate.OK
        assert injector.telemetry_fate(10.0) is TelemetryFate.DROPPED
        assert injector.telemetry_fate(19.9) is TelemetryFate.DROPPED
        assert injector.telemetry_fate(20.0) is TelemetryFate.OK
        assert injector.telemetry_fate(35.0) is TelemetryFate.FROZEN
        assert injector.dropped_ticks == 2
        assert injector.frozen_ticks == 1

    def test_overlapping_windows_merge(self):
        plan = FaultPlan(telemetry=TelemetryFaultSpec(
            dropout_windows=((10.0, 20.0), (15.0, 30.0), (50.0, 60.0)),
        ))
        injector = FaultInjector(plan, duration_s=100.0, n_servers=4)
        assert injector.dropout_windows == [(10.0, 30.0), (50.0, 60.0)]
        assert injector.dropout_window_count == 2

    def test_stochastic_schedule_deterministic(self):
        plan = FaultPlan(
            telemetry=TelemetryFaultSpec(dropouts_per_hour=10.0),
            churn=ChurnSpec(failures_per_hour=5.0),
            seed=7,
        )
        a = FaultInjector(plan, duration_s=7200.0, n_servers=8)
        b = FaultInjector(plan, duration_s=7200.0, n_servers=8)
        assert a.dropout_windows == b.dropout_windows
        assert a.churn_events == b.churn_events
        assert a.dropout_windows  # 20 expected, vanishingly unlikely zero

    def test_churn_target_bounds_checked(self):
        plan = FaultPlan(churn=ChurnSpec(
            events=(ServerChurnEvent(server_index=9, fail_at_s=1.0),)
        ))
        with pytest.raises(ConfigurationError):
            FaultInjector(plan, duration_s=100.0, n_servers=4)


class TestOverBudgetTracker:
    def test_runs_and_totals(self):
        tracker = OverBudgetTracker(budget_w=100.0)
        tracker.account(90.0, 10.0)
        tracker.account(110.0, 5.0)
        tracker.account(120.0, 3.0)
        tracker.account(90.0, 2.0)
        tracker.account(101.0, 4.0)
        assert tracker.time_at_risk_s == pytest.approx(12.0)
        assert tracker.longest_overbudget_s == pytest.approx(8.0)


# ----------------------------------------------------------------------
# Zero-fault equivalence: the integration must not change the POLCA
# reproduction.
# ----------------------------------------------------------------------
class TestTrivialPlanEquivalence:
    def test_all_zeros_plan_bit_identical(self):
        requests = make_requests(1.0, 600.0, seed=3)
        bare = ClusterSimulator(
            small_config(), DualThresholdPolicy()
        ).run(requests, 600.0)
        planned = ClusterSimulator(
            small_config(fault_plan=FaultPlan.none()), DualThresholdPolicy()
        ).run(requests, 600.0)
        assert bare.power_series.values.tolist() == \
            planned.power_series.values.tolist()
        assert bare.total_energy_j == planned.total_energy_j
        assert bare.capping_actions == planned.capping_actions
        assert bare.power_brake_events == planned.power_brake_events
        for priority in Priority:
            assert bare.per_priority[priority].latencies == \
                planned.per_priority[priority].latencies
            assert bare.per_priority[priority].served == \
                planned.per_priority[priority].served

    def test_report_attached_and_clean_without_faults(self):
        result = ClusterSimulator(small_config(), NoCapPolicy()).run(
            make_requests(0.5, 200.0), 200.0
        )
        report = result.robustness
        assert report is not None
        assert report.faults_injected == 0
        assert report.commands_unrecovered == 0
        assert report.fallback_entries == 0
        assert report.all_faults_accounted
        # Nothing ever fails silently on a perfect actuation path (and
        # verification is elided entirely for trivial plans).
        assert report.failures_detected == 0
        assert report.reissues == 0


# ----------------------------------------------------------------------
# Telemetry dropout -> graceful degradation
# ----------------------------------------------------------------------
class TestGracefulDegradation:
    def test_dropout_enters_fallback_then_brakes(self):
        plan = FaultPlan(telemetry=TelemetryFaultSpec(
            dropout_windows=((10.0, 200.0),)
        ))
        reliability = ReliabilityConfig(
            fallback_after_ticks=3, brake_after_stale_s=10.0
        )
        config = small_config(fault_plan=plan, reliability=reliability)
        simulator = ClusterSimulator(config, NoCapPolicy())
        result = simulator.run(make_requests(0.5, 300.0), 300.0)
        report = result.robustness
        assert report.fallback_entries == 1
        assert report.fallback_brakes == 1
        assert result.power_brake_events == 1
        assert report.max_missed_ticks >= 90
        # Recovery: telemetry returns at t=200, the brake is released
        # through the normal hysteresis path and the caps lift.
        assert not simulator.servers[0].braked
        assert all(s.clock_ratio == 1.0 for s in simulator.servers)

    def test_short_dropout_tolerated_without_fallback(self):
        plan = FaultPlan(telemetry=TelemetryFaultSpec(
            dropout_windows=((10.0, 16.0),)
        ))
        config = small_config(
            fault_plan=plan,
            reliability=ReliabilityConfig(fallback_after_ticks=5),
        )
        result = ClusterSimulator(config, NoCapPolicy()).run(
            make_requests(0.5, 100.0), 100.0
        )
        assert result.robustness.telemetry_dropped_ticks > 0
        assert result.robustness.fallback_entries == 0
        assert result.power_brake_events == 0

    def test_frozen_sensor_detected_when_enabled(self):
        plan = FaultPlan(telemetry=TelemetryFaultSpec(
            freeze_windows=((10.0, 200.0),)
        ))
        reliability = ReliabilityConfig(
            detect_frozen=True, frozen_after_ticks=3, fallback_after_ticks=3
        )
        config = small_config(fault_plan=plan, reliability=reliability)
        result = ClusterSimulator(config, NoCapPolicy()).run(
            make_requests(0.5, 300.0), 300.0
        )
        assert result.robustness.telemetry_frozen_ticks > 0
        assert result.robustness.fallback_entries >= 1


class _Observer(NoCapPolicy):
    """Never caps; remembers when each reading reached the controller."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def desired_caps(self, utilization, now=0.0):
        self.seen.append((now, utilization))
        return super().desired_caps(utilization, now)


class TestDelayedTelemetry:
    @pytest.mark.parametrize("delay_s", [0.5, 2.0, 3.0, 7.25])
    def test_each_reading_reaches_the_policy_delay_s_late(self, delay_s):
        # A policy that never acts cannot steer the trajectory, so the
        # delayed run measures exactly the readings of the prompt run;
        # each one must reach the controller ``delay_s`` after its tick,
        # in order. A reading still in flight at the horizon never
        # reaches it.
        requests = make_requests(0.5, 300.0)
        prompt, late = _Observer(), _Observer()
        ClusterSimulator(small_config(), prompt).run(requests, 300.0)
        plan = FaultPlan(telemetry=TelemetryFaultSpec(delay_s=delay_s))
        ClusterSimulator(small_config(fault_plan=plan), late).run(
            requests, 300.0
        )
        assert len(prompt.seen) == 150
        assert len({u for _, u in prompt.seen}) > 1
        assert late.seen == [
            (now + delay_s, u) for now, u in prompt.seen
            if now + delay_s <= 300.0
        ]

    def test_no_control_step_after_the_horizon(self):
        # The last tick of a 300 s run is at 298 s; its reading would
        # arrive at 305.25 s, after the horizon.
        requests = make_requests(0.5, 300.0)
        late = _Observer()
        plan = FaultPlan(telemetry=TelemetryFaultSpec(delay_s=7.25))
        result = ClusterSimulator(small_config(fault_plan=plan), late).run(
            requests, 300.0
        )
        assert late.seen[-1][0] == 299.25  # the tick at 292 s
        assert all(now <= 300.0 for now, _ in late.seen)
        assert len(late.seen) == 150 - 3  # not those of 294-298 s
        # Requests still drain past the horizon and are all served.
        assert result.total_served == len(requests)


# ----------------------------------------------------------------------
# Silent actuation failure -> verify + re-issue
# ----------------------------------------------------------------------
class _AlwaysCapLow(PowerPolicy):
    """Caps the low-priority pool from the first tick."""

    name = "always-cap-low"

    def desired_caps(self, utilization, now=0.0):
        return GroupCaps(low_clock_mhz=1110.0)


class TestReliableCommands:
    def test_silent_failures_detected_and_recovered(self):
        plan = FaultPlan(
            actuation=ActuationFaultSpec(silent_failure_rate=0.7), seed=2
        )
        config = small_config(fault_plan=plan)
        simulator = ClusterSimulator(config, _AlwaysCapLow())
        result = simulator.run(make_requests(0.5, 400.0), 400.0)
        report = result.robustness
        assert report.silent_actuation_failures >= 1
        assert report.failures_detected >= 1
        assert report.reissues >= 1
        assert report.commands_recovered >= 1
        assert report.commands_unrecovered == 0
        # The cap eventually landed despite the lossy interface.
        expected = 1110.0 / 1410.0
        for index in simulator._index_by_priority[Priority.LOW]:
            assert simulator.servers[index].clock_ratio == \
                pytest.approx(expected)

    def test_delayed_actuation_counted(self):
        plan = FaultPlan(
            actuation=ActuationFaultSpec(delay_prob=1.0, extra_delay_s=5.0),
            seed=1,
        )
        config = small_config(fault_plan=plan)
        result = ClusterSimulator(config, _AlwaysCapLow()).run(
            make_requests(0.5, 300.0), 300.0
        )
        assert result.robustness.delayed_actuations >= 1
        assert result.robustness.commands_unrecovered == 0


# ----------------------------------------------------------------------
# Server churn
# ----------------------------------------------------------------------
class TestServerChurn:
    def test_crash_drops_requests_and_power_recovers(self):
        plan = FaultPlan(churn=ChurnSpec(events=(
            ServerChurnEvent(server_index=0, fail_at_s=60.0,
                             recover_at_s=160.0),
        )))
        config = small_config(fault_plan=plan)
        simulator = ClusterSimulator(config, NoCapPolicy())
        requests = make_requests(2.0, 300.0, seed=5)
        result = simulator.run(requests, 300.0)
        report = result.robustness
        assert report.server_failures == 1
        assert report.server_recoveries == 1
        assert report.requests_lost_to_churn >= 1
        assert not simulator.servers[0].failed
        # The same trace without churn serves strictly more requests.
        clean = ClusterSimulator(small_config(), NoCapPolicy()).run(
            requests, 300.0
        )
        assert result.total_served < clean.total_served

    def test_permanent_loss(self):
        plan = FaultPlan(churn=ChurnSpec(events=(
            ServerChurnEvent(server_index=1, fail_at_s=50.0),
        )))
        config = small_config(fault_plan=plan)
        simulator = ClusterSimulator(config, NoCapPolicy())
        result = simulator.run(make_requests(0.5, 200.0), 200.0)
        assert result.robustness.server_failures == 1
        assert result.robustness.server_recoveries == 0
        assert simulator.servers[1].failed
        # A dead server contributes zero power.
        assert simulator.servers[1].current_power() == 0.0


# ----------------------------------------------------------------------
# Brake re-engage race (version-stamped brake events)
# ----------------------------------------------------------------------
class _SpikeDuringRelease(PowerPolicy):
    """Requests the brake always; allows release exactly once.

    The single release enters ``pending_off``; the still-spiking
    utilization on the next tick must cancel the pending release instead
    of being ignored (the pre-fix race let the release land regardless).
    """

    name = "spike-during-release"

    def __init__(self):
        self._release_calls = 0

    def reset(self):
        self._release_calls = 0

    def desired_caps(self, utilization, now=0.0):
        return GroupCaps.uncapped()

    def wants_brake(self, utilization):
        return True

    def brake_release_ok(self, utilization):
        self._release_calls += 1
        return self._release_calls == 1


class _OneShotBrake(PowerPolicy):
    """Brakes once, releases as soon as the hold allows, never re-arms."""

    name = "one-shot-brake"

    def __init__(self):
        self._armed = True

    def reset(self):
        self._armed = True

    def desired_caps(self, utilization, now=0.0):
        return GroupCaps.uncapped()

    def wants_brake(self, utilization):
        if self._armed:
            self._armed = False
            return True
        return False

    def brake_release_ok(self, utilization):
        return True


class TestBrakeReEngageRace:
    def test_spike_cancels_pending_release(self):
        config = small_config(brake_hold_s=2.0, brake_latency_s=5.0)
        simulator = ClusterSimulator(config, _SpikeDuringRelease())
        result = simulator.run([], 40.0)
        # The release was cancelled: the brake never disengaged, so there
        # is exactly one engagement and the row ends braked.
        assert result.power_brake_events == 1
        assert all(s.braked for s in simulator.servers)

    def test_normal_release_still_lands(self):
        config = small_config(brake_hold_s=2.0, brake_latency_s=5.0)
        simulator = ClusterSimulator(config, _OneShotBrake())
        result = simulator.run([], 40.0)
        assert result.power_brake_events == 1
        assert not any(s.braked for s in simulator.servers)


# ----------------------------------------------------------------------
# Combined adversarial scenario (the small-scale acceptance check; the
# full-size run lives in benchmarks/test_ext_fault_tolerance.py)
# ----------------------------------------------------------------------
class TestAdversarialScenario:
    def test_polca_survives_combined_faults(self):
        plan = FaultPlan(
            telemetry=TelemetryFaultSpec(
                noise_std=0.02,
                dropout_windows=((100.0, 140.0), (400.0, 440.0)),
            ),
            actuation=ActuationFaultSpec(silent_failure_rate=0.10),
            churn=ChurnSpec(events=(
                ServerChurnEvent(server_index=2, fail_at_s=250.0,
                                 recover_at_s=350.0),
            )),
            seed=4,
        )
        config = small_config(fault_plan=plan)
        simulator = ClusterSimulator(config, DualThresholdPolicy())
        result = simulator.run(make_requests(1.5, 600.0, seed=6), 600.0)
        report = result.robustness
        assert report.faults_injected > 0
        assert report.all_faults_accounted
        assert report.longest_overbudget_s <= 40.0
        # The report ledgers every channel it injected on.
        assert report.telemetry_dropped_ticks >= 40
        assert report.server_failures == 1
