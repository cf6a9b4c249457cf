"""IPMI: out-of-band server-level power monitoring (Table 1).

IPMI "queries the server baseboard management controller (BMC) to obtain
power readings" at a 1-5 s interval (Table 1). The paper uses IPMI to
validate DCGM power measurements (Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.base import SampledInterface

#: IPMI sampling interval; Table 1 gives 1-5 s, we default to the middle.
IPMI_INTERVAL_S = 3.0


@dataclass
class IpmiMonitor(SampledInterface):
    """OOB server power monitor via the BMC."""

    name: str = "IPMI"
    interval: float = IPMI_INTERVAL_S
    in_band: bool = False
    delay: float = 0.5
    noise_std: float = 0.01
