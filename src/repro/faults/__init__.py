"""Fault injection, reliable commands, and graceful degradation.

The paper's Section 3.3 establishes that cloud power control runs over
slow, *unreliable* interfaces; Section 6.6 probes robustness only under a
+5% power-model error. This package closes the gap: a declarative,
seeded :class:`FaultPlan` injects telemetry dropout/freeze/noise, silent
or delayed actuations, and server churn into the cluster simulator; a
:class:`ReliabilityConfig` hardens the control path (verify-after
deadlines, capped-backoff re-issue, stale-telemetry safe-cap fallback);
and a :class:`RobustnessReport` ledgers injected vs. detected vs.
recovered faults plus the row's exact over-budget exposure.
"""

from repro.faults.injector import FaultInjector, TelemetryFate
from repro.faults.plan import (
    ActuationFaultSpec,
    ChurnSpec,
    FaultPlan,
    ServerChurnEvent,
    TelemetryFaultSpec,
)
from repro.faults.reliability import ReliabilityConfig
from repro.faults.report import OverBudgetTracker, RobustnessReport

__all__ = [
    "ActuationFaultSpec",
    "ChurnSpec",
    "FaultInjector",
    "FaultPlan",
    "OverBudgetTracker",
    "ReliabilityConfig",
    "RobustnessReport",
    "ServerChurnEvent",
    "TelemetryFate",
    "TelemetryFaultSpec",
]
