"""POLCA's dual-threshold, priority-aware capping policy (Table 5).

The policy has four escalating modes driven by row power utilization
against two thresholds (Section 6.3, Table 5):

=============  =====================  ======================
Mode           Low priority           High priority
=============  =====================  ======================
Uncapped       uncapped               uncapped
Threshold T1   freq cap 1275 MHz      uncapped
Threshold T2   freq cap 1110 MHz      freq cap 1305 MHz
Power brake    288 MHz                288 MHz
=============  =====================  ======================

T1 (80%) proactively slows low-priority work; T2 (89%) is "based on the
observed value of maximum power spike in 40s (the OOB capping delay)" so
that even the worst in-flight spike cannot reach the breaker before a cap
lands. Breaching T2 first deepens the low-priority cap; only "if the power
is still above the threshold" does POLCA touch high-priority workloads,
and then with a near-free cap (1305 MHz ≈ <2% performance; Insight 7).
Uncap thresholds sit 5% below their cap thresholds to avoid hysteresis
(Section 6.3, "Selecting thresholds").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PolcaThresholds:
    """The tunable constants of the POLCA policy.

    Attributes:
        t1: Low threshold as a fraction of provisioned power (0.80).
        t2: High threshold (0.89); chosen from the max 40 s spike.
        uncap_margin: How far below a threshold power must fall before
            the corresponding cap lifts (0.05 per the parameter sweeps).
        lp_t1_clock_mhz: Low-priority cap at T1 (A100 base clock).
        lp_t2_clock_mhz: Deeper low-priority cap at T2.
        hp_t2_clock_mhz: High-priority cap at T2 (negligible impact).
    """

    t1: float = 0.80
    t2: float = 0.89
    uncap_margin: float = 0.05
    lp_t1_clock_mhz: float = 1275.0
    lp_t2_clock_mhz: float = 1110.0
    hp_t2_clock_mhz: float = 1305.0

    def __post_init__(self) -> None:
        if not 0.0 < self.t1 < self.t2 <= 1.0:
            raise ConfigurationError(
                f"thresholds must satisfy 0 < t1 < t2 <= 1, got "
                f"t1={self.t1}, t2={self.t2}"
            )
        if self.uncap_margin <= 0:
            raise ConfigurationError("uncap_margin must be positive")
        if not (
            0
            < self.lp_t2_clock_mhz
            <= self.lp_t1_clock_mhz
            and 0 < self.hp_t2_clock_mhz
        ):
            raise ConfigurationError("inconsistent capping clocks")


#: The configuration selected by the paper's threshold search (Section 6.5).
POLCA_DEFAULTS = PolcaThresholds()

#: ``_t2_breached_since`` while T2 is not breached.
_NOT_BREACHED = float("inf")


class DualThresholdPolicy(PowerPolicy):
    """POLCA's stateful dual-threshold controller.

    Escalation levels: 0 = uncapped; 1 = T1 (LP at 1275 MHz);
    2 = T2 entered (LP at 1110 MHz); 3 = T2 persists (HP also capped,
    1305 MHz). De-escalation requires utilization to fall 5% below the
    corresponding threshold (hysteresis).
    """

    #: Seconds a T2 breach must persist before high-priority workloads are
    #: capped — slightly above the 40 s OOB latency, so the deeper
    #: low-priority cap gets a chance to land and take effect first
    #: ("If the power is still above the threshold", Section 6.3).
    HP_ESCALATION_DELAY_S = 44.0

    def __init__(self, thresholds: PolcaThresholds = POLCA_DEFAULTS) -> None:
        self.thresholds = thresholds
        self.name = "POLCA"
        # The caps of each escalation level, built once: desired_caps
        # runs on every telemetry tick and returns one of these.
        self._level_caps = (
            GroupCaps.uncapped(),
            GroupCaps(low_clock_mhz=thresholds.lp_t1_clock_mhz),
            GroupCaps(low_clock_mhz=thresholds.lp_t2_clock_mhz),
            GroupCaps(
                low_clock_mhz=thresholds.lp_t2_clock_mhz,
                high_clock_mhz=thresholds.hp_t2_clock_mhz,
            ),
        )
        self._level = 0
        self._t2_breached_since: float = _NOT_BREACHED

    @property
    def level(self) -> int:
        """Current escalation level (0-3), for observability."""
        return self._level

    def reset(self) -> None:
        """Return to the uncapped mode."""
        self._level = 0
        self._t2_breached_since = _NOT_BREACHED

    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        """Apply the Table 5 state machine to one telemetry reading."""
        t = self.thresholds
        if utilization >= t.t2:
            if self._t2_breached_since == _NOT_BREACHED:
                self._t2_breached_since = now
            # The first T2 breach deepens the LP cap; only if the breach
            # outlasts the OOB actuation latency (i.e. the deeper LP cap
            # has landed and power is still above T2) does POLCA also cap
            # the high-priority workloads.
            if (
                self._level >= 2
                and now - self._t2_breached_since >= self.HP_ESCALATION_DELAY_S
            ):
                self._level = 3
            else:
                self._level = max(self._level, 2)
        elif utilization >= t.t1:
            self._level = max(self._level, 1)
            self._t2_breached_since = _NOT_BREACHED
        else:
            self._t2_breached_since = _NOT_BREACHED
        # Hysteretic de-escalation, one level per tick: each step releases
        # less power than the 5% uncap margin, so stepping down cannot
        # immediately re-trigger the threshold it just left (the
        # anti-hysteresis property Section 6.3 calls out).
        if self._level == 3 and utilization < t.t2 - t.uncap_margin:
            self._level = 2
        elif self._level == 2 and utilization < t.t2 - t.uncap_margin:
            self._level = 1
        elif self._level == 1 and utilization < t.t1 - t.uncap_margin:
            self._level = 0
        return self._level_caps[self._level]
