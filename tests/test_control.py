"""Control actions and the simulator's OOB command path (Table 2)."""

import numpy as np
import pytest

from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.control.actions import ActionKind, ControlAction
from repro.control.actuator import Actuator, UPS_CAPPING_DEADLINE_S
from repro.core.baselines import NoCapPolicy
from repro.errors import ConfigurationError
from repro.faults.plan import ActuationFaultSpec, FaultPlan
from repro.obs.recorder import MemoryRecorder


TARGETS = frozenset({"row0/r0/s0", "row0/r0/s1"})


def row_actuator(plan=None, **overrides):
    """The actuator a simulated row issues its commands through."""
    simulator = ClusterSimulator(
        ClusterConfig(n_base_servers=4, **overrides), NoCapPolicy()
    )
    return simulator._build_actuator(plan or FaultPlan.none())


class _FlipLowCap(PowerPolicy):
    """Moves the low-priority cap every 100 s: a steady command stream."""

    name = "flip-low-cap"

    def desired_caps(self, utilization, now=0.0):
        deep = int(now // 100.0) % 2 == 0
        return GroupCaps(low_clock_mhz=1110.0 if deep else 1305.0)


def lossy_run(rate, seed):
    """Cap issues and landings of a 20-minute run over a lossy path."""
    plan = FaultPlan(
        actuation=ActuationFaultSpec(silent_failure_rate=rate), seed=seed
    )
    recorder = MemoryRecorder(kinds=("cap_issue", "cap_land"))
    simulator = ClusterSimulator(
        ClusterConfig(n_base_servers=4, fault_plan=plan), _FlipLowCap(),
        recorder=recorder,
    )
    result = simulator.run([], 1200.0)
    issues = [e for e in recorder.events if e["kind"] == "cap_issue"]
    lands = [e for e in recorder.events if e["kind"] == "cap_land"]
    return result, issues, lands


class TestControlAction:
    def test_frequency_lock_requires_value(self):
        action = ControlAction.frequency_lock(TARGETS, 1275.0, "T1")
        assert action.kind is ActionKind.FREQUENCY_LOCK
        assert action.value == 1275.0
        with pytest.raises(ConfigurationError):
            ControlAction(ActionKind.FREQUENCY_LOCK, TARGETS, None)

    def test_brake_takes_no_value(self):
        action = ControlAction(ActionKind.POWER_BRAKE, TARGETS)
        assert action.value is None
        with pytest.raises(ConfigurationError):
            ControlAction(ActionKind.POWER_BRAKE, TARGETS, 100.0)

    def test_empty_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            ControlAction(ActionKind.POWER_BRAKE, frozenset())
        with pytest.raises(ConfigurationError):
            ControlAction.frequency_unlock(frozenset())

    def test_negative_value_rejected(self):
        with pytest.raises(ConfigurationError):
            ControlAction(ActionKind.POWER_CAP, TARGETS, -1.0)

    def test_constructors_cover_kinds(self):
        assert ControlAction.frequency_lock(TARGETS, 1110.0).kind \
            is ActionKind.FREQUENCY_LOCK
        assert ControlAction.frequency_unlock(TARGETS).kind \
            is ActionKind.FREQUENCY_UNLOCK


class TestActuator:
    def test_oob_latencies_match_table2(self):
        actuator = row_actuator()
        assert actuator.latency_for(ActionKind.FREQUENCY_LOCK) == 40.0
        assert actuator.latency_for(ActionKind.FREQUENCY_UNLOCK) == 40.0
        assert actuator.latency_for(ActionKind.POWER_BRAKE) == 5.0
        assert actuator.latency_for(ActionKind.BRAKE_RELEASE) == 5.0

    def test_only_brake_meets_ups_deadline_oob(self):
        """Section 6.2: only the brake beats the 10 s UPS deadline OOB."""
        actuator = row_actuator()
        assert UPS_CAPPING_DEADLINE_S == 10.0
        assert actuator.latency_for(ActionKind.POWER_BRAKE) \
            <= UPS_CAPPING_DEADLINE_S
        assert actuator.latency_for(ActionKind.FREQUENCY_LOCK) \
            > UPS_CAPPING_DEADLINE_S
        assert actuator.latency_for(ActionKind.POWER_CAP) \
            > UPS_CAPPING_DEADLINE_S

    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_meets_ups_deadline_every_kind_oob(self, kind):
        """OOB, exactly the brake pair beats the 10 s UPS deadline."""
        expected = kind in (
            ActionKind.POWER_BRAKE, ActionKind.BRAKE_RELEASE,
        )
        meets = row_actuator().latency_for(kind) <= UPS_CAPPING_DEADLINE_S
        assert meets is expected

    def test_action_lands_after_latency(self):
        record = row_actuator().issue(
            3.0, ControlAction.frequency_lock(TARGETS, 1275.0)
        )
        assert record.issued_at == 3.0
        assert record.effective_at == 43.0
        assert record.action.value == 1275.0
        assert not record.failed_silently

    def test_landing_order_sorted_by_time(self):
        """A brake issued with a cap lands 35 s before it."""
        actuator = row_actuator()
        brake = actuator.issue(0.0, ControlAction(ActionKind.POWER_BRAKE,
                                                  TARGETS))
        cap = actuator.issue(0.0, ControlAction.frequency_lock(TARGETS,
                                                               1110.0))
        assert brake.effective_at == 5.0
        assert cap.effective_at == 40.0

    def test_one_silent_failure_draw_per_command(self):
        """Each issue takes the next ``random()`` of the plan's
        ``seed + 1`` stream, whatever its kind."""
        plan = FaultPlan(
            actuation=ActuationFaultSpec(silent_failure_rate=0.5), seed=7
        )
        actuator = row_actuator(plan)
        actions = [
            ControlAction.frequency_lock(TARGETS, 1110.0),
            ControlAction(ActionKind.POWER_BRAKE, TARGETS),
        ] * 50
        flags = [actuator.issue(0.0, a).failed_silently for a in actions]
        expected = np.random.default_rng(8).random(100) < 0.5
        assert flags == expected.tolist()
        assert 20 < sum(flags) < 80

    def test_silent_failures_recorded_but_not_applied(self):
        result, issues, lands = lossy_run(0.5, seed=0)
        silent = sum(1 for e in issues if e["silent"])
        assert silent >= 1
        assert result.robustness.silent_actuation_failures == silent
        assert result.robustness.commands_issued == len(issues)
        assert len(lands) == len(issues) - silent

    def test_silent_failures_never_land(self):
        """A dropped command never lands; every other one lands exactly
        one OOB latency after its issue."""
        _, issues, lands = lossy_run(0.5, seed=1)
        assert any(e["silent"] for e in issues)
        assert sorted(e["t"] for e in lands) == sorted(
            e["t"] + 40.0 for e in issues if not e["silent"]
        )

    def test_missing_latency_rejected(self):
        actuator = Actuator(latencies={})
        with pytest.raises(ConfigurationError):
            actuator.latency_for(ActionKind.POWER_CAP)

    def test_invalid_failure_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Actuator(latencies={}, silent_failure_rate=1.5)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            Actuator(latencies={ActionKind.POWER_CAP: -1.0})
