"""Control-action vocabulary for GPU power management.

The knobs the paper characterizes (Section 3.2): frequency locking sets
the SM clock to a fixed value; power capping sets a reactive watt limit;
the power brake drops all GPUs to a near-halt clock. Each action targets a
set of servers (POLCA assumes "a homogeneous distribution of power and
caps", Section 6.3, so per-server rather than per-GPU targeting suffices).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.errors import ConfigurationError


class ActionKind(enum.Enum):
    """The supported control operations."""

    FREQUENCY_LOCK = "frequency_lock"
    FREQUENCY_UNLOCK = "frequency_unlock"
    POWER_CAP = "power_cap"
    POWER_UNCAP = "power_uncap"
    POWER_BRAKE = "power_brake"
    BRAKE_RELEASE = "brake_release"


#: Actions that require a numeric value (MHz or watts).
_VALUED_ACTIONS = {ActionKind.FREQUENCY_LOCK, ActionKind.POWER_CAP}


@dataclass(frozen=True)
class ControlAction:
    """One power-management command.

    Attributes:
        kind: The operation.
        targets: Identifiers of the servers the action applies to.
        value: SM clock in MHz for frequency locks, watts for power caps;
            must be ``None`` for the unlock/uncap/brake operations.
        reason: Free-text explanation (e.g. ``"T1 crossed"``), useful
            for the policy audit trail.
    """

    kind: ActionKind
    targets: FrozenSet[str]
    value: Optional[float] = None
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.targets:
            raise ConfigurationError(f"{self.kind.value}: empty target set")
        if self.kind in _VALUED_ACTIONS:
            if self.value is None or self.value <= 0:
                raise ConfigurationError(
                    f"{self.kind.value} requires a positive value, got {self.value}"
                )
        elif self.value is not None:
            raise ConfigurationError(
                f"{self.kind.value} does not take a value, got {self.value}"
            )

    @classmethod
    def frequency_lock(
        cls, targets: FrozenSet[str], sm_clock_mhz: float, reason: str = ""
    ) -> "ControlAction":
        """Lock the SM clock on the targeted servers."""
        return cls(ActionKind.FREQUENCY_LOCK, targets, sm_clock_mhz, reason)

    @classmethod
    def frequency_unlock(
        cls, targets: FrozenSet[str], reason: str = ""
    ) -> "ControlAction":
        """Release frequency locks on the targeted servers."""
        return cls(ActionKind.FREQUENCY_UNLOCK, targets, None, reason)
