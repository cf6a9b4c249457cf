"""The comparison policies from Section 6.6.

POLCA is compared against three baselines, each still carrying the power
brake as the power-failure safety net:

* **1-Thresh-Low-Pri** — a single threshold at 89% that caps only
  low-priority servers, directly to the deep 1110 MHz cap ("does not
  gradually reduce their frequency", so it misses low-priority SLOs);
* **1-Thresh-All** — a single threshold at 89% capping *all* servers
  aggressively, breaching both tiers' p99 SLOs;
* **No-cap** — no frequency capping at all; comparable to POLCA under
  standard conditions but unprotected against workload power growth, so
  it degrades to power brakes (hurting p99/p100) when models change.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.errors import ConfigurationError


class SingleThresholdLowPriPolicy(PowerPolicy):
    """One threshold, low-priority servers capped directly to the deep cap."""

    def __init__(
        self,
        threshold: float = 0.89,
        uncap_margin: float = 0.05,
        lp_clock_mhz: float = 1110.0,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(f"threshold {threshold} outside (0, 1]")
        self.threshold = threshold
        self.uncap_margin = uncap_margin
        self.lp_clock_mhz = lp_clock_mhz
        self.name = "1-Thresh-Low-Pri"
        self._capped_caps = GroupCaps(low_clock_mhz=lp_clock_mhz)
        self._capped = False

    def reset(self) -> None:
        """Return to the uncapped state."""
        self._capped = False

    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        """Cap low priority straight to the deep clock above the threshold."""
        if utilization >= self.threshold:
            self._capped = True
        elif utilization < self.threshold - self.uncap_margin:
            self._capped = False
        if self._capped:
            return self._capped_caps
        return GroupCaps.uncapped()


class SingleThresholdAllPolicy(PowerPolicy):
    """One threshold, every server capped aggressively."""

    def __init__(
        self,
        threshold: float = 0.89,
        uncap_margin: float = 0.05,
        clock_mhz: float = 1110.0,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(f"threshold {threshold} outside (0, 1]")
        self.threshold = threshold
        self.uncap_margin = uncap_margin
        self.clock_mhz = clock_mhz
        self.name = "1-Thresh-All"
        self._capped_caps = GroupCaps(
            low_clock_mhz=clock_mhz, high_clock_mhz=clock_mhz
        )
        self._capped = False

    def reset(self) -> None:
        """Return to the uncapped state."""
        self._capped = False

    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        """Cap both priority groups aggressively above the threshold."""
        if utilization >= self.threshold:
            self._capped = True
        elif utilization < self.threshold - self.uncap_margin:
            self._capped = False
        if self._capped:
            return self._capped_caps
        return GroupCaps.uncapped()


class NoCapPolicy(PowerPolicy):
    """No frequency capping; only the brake stands between the row and the
    breaker."""

    def __init__(self) -> None:
        self.name = "No-cap"

    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        """Never cap anything."""
        return GroupCaps.uncapped()


class UnmanagedPolicy(PowerPolicy):
    """No power management at all: no caps *and* no power brake.

    The pre-POLCA row Section 3 argues against. Where ``NoCapPolicy``
    still carries the brake safety net, this baseline models the
    unprotected deployment whose sustained oversubscription overload
    reaches the breaker itself — the tripping baseline of the
    ``repro.powerfail`` study (an oversubscribed row under this policy
    heats the row breaker's thermal accumulator until it trips, while
    POLCA at the Figure 13 thresholds never overloads it).
    """

    #: The brake never engages at any finite utilization.
    brake_threshold: float = float("inf")

    def __init__(self) -> None:
        self.name = "Unmanaged"

    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        """Never cap anything."""
        return GroupCaps.uncapped()


def all_policies() -> Dict[str, Callable[[], PowerPolicy]]:
    """Factories for the four policies of Figures 17-18, by name.

    ``UnmanagedPolicy`` is deliberately absent: it exists for the
    power-safety study (:mod:`repro.powerfail`), not for the figure
    sweeps that iterate this registry. The sweep engine still builds it
    via ``PolicySpec("Unmanaged")``.
    """
    from repro.core.policy import DualThresholdPolicy

    return {
        "POLCA": DualThresholdPolicy,
        "1-Thresh-Low-Pri": SingleThresholdLowPriPolicy,
        "1-Thresh-All": SingleThresholdAllPolicy,
        "No-cap": NoCapPolicy,
    }
