"""Latency- and reliability-aware actuation of control actions.

The defining constraint of cloud GPU power management (Section 3.3) is that
the provider must act *out of band*: frequency/power capping takes up to
40 s to land (Table 2) while the UPS requires capping within 10 s
(Section 6.2). Only the power brake beats the deadline (5 s), at a severe
performance cost. The :class:`Actuator` holds the per-kind latencies and
draws each command's silent failure; the simulation core's event queue
schedules the landings. POLCA's whole design — conservative thresholds
chosen from the worst 40 s power spike — exists to live within these
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.control.actions import ActionKind, ControlAction
from repro.errors import ConfigurationError

#: UPS-imposed deadline for a capping response (Section 3.3 / 6.2).
UPS_CAPPING_DEADLINE_S = 10.0


@dataclass(frozen=True)
class AppliedAction:
    """An action that has been dispatched.

    Attributes:
        action: The original command.
        issued_at: When the controller dispatched it.
        effective_at: When it takes (or would have taken) effect.
        failed_silently: True if the interface dropped it without error.
    """

    action: ControlAction
    issued_at: float
    effective_at: float
    failed_silently: bool = False


@dataclass
class Actuator:
    """Per-action-kind latency plus one silent-failure draw per command.

    Attributes:
        latencies: Seconds from issue to effect, per action kind.
        silent_failure_rate: Probability any single command is dropped
            without an error (Section 3.3's unreliable OOB interfaces).
        seed: RNG seed for the failure process.
    """

    latencies: Dict[ActionKind, float]
    silent_failure_rate: float = 0.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.silent_failure_rate < 1.0:
            raise ConfigurationError("silent_failure_rate must be in [0, 1)")
        for kind, latency in self.latencies.items():
            if latency < 0:
                raise ConfigurationError(f"{kind.value}: negative latency")
        self._rng = np.random.default_rng(self.seed)

    def latency_for(self, kind: ActionKind) -> float:
        """Actuation latency for an action kind.

        Raises:
            ConfigurationError: If the kind has no configured latency.
        """
        try:
            return self.latencies[kind]
        except KeyError:
            raise ConfigurationError(
                f"no latency configured for {kind.value}"
            ) from None

    def issue(self, now: float, action: ControlAction) -> AppliedAction:
        """Dispatch an action; it becomes effective after its latency.

        Draws one ``random()`` per command for the silent failure. The
        returned record notes the failure, but — true to the paper — the
        *simulated controller* must not peek at that flag; it exists for
        the experiment harness to count.
        """
        latency = self.latency_for(action.kind)
        failed = bool(self._rng.random() < self.silent_failure_rate)
        return AppliedAction(
            action=action,
            issued_at=now,
            effective_at=now + latency,
            failed_silently=failed,
        )
