"""SMBPBI: the slow, unreliable OOB GPU interface (Tables 1-2).

NVIDIA's SMBPBI provides OOB power monitoring and control per GPU, but
"it is quite slow in practice" (Section 3.1): reads take 5 s or more
(Table 1), control actions take up to 40 s to execute (Table 2), and the
interface "may sometimes fail without signaling completion or errors"
(Section 3.3). The simulator's command path
(:class:`~repro.control.actuator.Actuator`) uses this actuation latency,
and its silent failures come from the run's
:class:`~repro.faults.plan.FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.base import SampledInterface

#: OOB read interval (Table 1: "5s+").
SMBPBI_READ_INTERVAL_S = 5.0

#: OOB control latency (Table 2: "OOB control latency: 40s").
SMBPBI_ACTUATION_LATENCY_S = 40.0


@dataclass
class SmbpbiInterface(SampledInterface):
    """OOB GPU power monitoring at SMBPBI's read interval."""

    name: str = "SMBPBI"
    interval: float = SMBPBI_READ_INTERVAL_S
    in_band: bool = False
    delay: float = 1.0
    noise_std: float = 0.01
