"""Power-policy interface consumed by the cluster simulator.

A policy sees exactly what POLCA's power manager sees (Figure 12): the
row-level power utilization from the 2-second PDU telemetry, nothing else.
It answers with the frequency caps it *wants* per priority group and
whether the brake should engage; the simulator is responsible for the
realities of actuation (40 s OOB latency, 5 s brake latency).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class GroupCaps:
    """Desired frequency caps per priority group.

    Attributes:
        low_clock_mhz: SM clock cap for low-priority servers
            (``None`` = uncapped).
        high_clock_mhz: SM clock cap for high-priority servers.
    """

    low_clock_mhz: Optional[float] = None
    high_clock_mhz: Optional[float] = None

    @staticmethod
    def uncapped() -> "GroupCaps":
        """No caps on either group (one shared instance; it is frozen)."""
        return _UNCAPPED


_UNCAPPED = GroupCaps()


class PowerPolicy(abc.ABC):
    """Base class for row-level power-management policies.

    Policies may keep internal mode state (all the paper's policies are
    hysteretic); :meth:`reset` returns them to the uncapped state between
    simulation runs.
    """

    #: Display name used in result tables (e.g. ``"POLCA"``).
    name: str = "policy"

    #: Row utilization at which the power brake engages (breaker safety).
    brake_threshold: float = 1.0

    #: Row utilization below which an engaged brake is released.
    brake_release: float = 0.92

    @abc.abstractmethod
    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        """Desired per-group caps given the current row utilization.

        Called at every telemetry tick (2 s). Implementations apply their
        thresholds and hysteresis and return the target state; returning
        the same state as the previous tick is expected and cheap (the
        simulator deduplicates commands). ``now`` is the simulation time,
        for policies whose escalation depends on how long a condition has
        persisted (POLCA waits out the OOB actuation latency before
        touching high-priority workloads).
        """

    def wants_brake(self, utilization: float) -> bool:
        """Whether the brake should engage at this utilization."""
        return utilization >= self.brake_threshold

    def brake_release_ok(self, utilization: float) -> bool:
        """Whether an engaged brake may release at this utilization."""
        return utilization < self.brake_release

    def reset(self) -> None:
        """Clear internal mode state before a fresh simulation run."""
