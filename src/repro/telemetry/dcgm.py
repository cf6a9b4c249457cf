"""DCGM: in-band GPU monitoring at 100 ms (Table 1).

DCGM "provides additional support to monitor GPU performance counters like
Streaming Multiprocessor (SM) activity, memory activity, and PCIe TX/RX
usage" (Section 3.1). The paper runs it at a 100 ms interval and notes a
5-10 W server-power overhead from the repeated counter queries
(Section 3.4, "Minimizing overheads"); the simulated monitor records both
the interval and the overhead so experiments can account for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.base import SampledInterface

#: The paper's DCGM sampling configuration (Section 3.4).
DCGM_INTERVAL_S = 0.1

#: Server-power overhead of running DCGM, in watts (Section 3.4 reports
#: "about 5-10W"; we use the midpoint).
DCGM_OVERHEAD_W = 7.5


@dataclass
class DcgmMonitor(SampledInterface):
    """In-band GPU monitor: power plus performance counters at 100 ms.

    Attributes:
        overhead_w: Additional server power while DCGM is enabled.
    """

    name: str = "DCGM"
    interval: float = DCGM_INTERVAL_S
    in_band: bool = True
    delay: float = 0.0
    noise_std: float = 0.005
    overhead_w: float = DCGM_OVERHEAD_W
