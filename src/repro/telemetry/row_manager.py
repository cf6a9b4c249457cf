"""Row manager: 2-second aggregate power telemetry for a row of racks.

The row manager "aggregates the power draw across all servers in the row"
(Section 3.1) and delivers a reading every 2 seconds (Tables 1-2:
"Power telemetry delay: 2s"). POLCA's power manager consumes exactly this
signal (Figure 12) — it is the coarsest but the only row-level view. The
cluster simulator reads its row power at this period
(``ClusterConfig.telemetry_interval_s``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.base import SampledInterface

#: Row-level telemetry period (Table 2).
ROW_TELEMETRY_INTERVAL_S = 2.0


@dataclass
class RowManager(SampledInterface):
    """OOB aggregate power telemetry for one row (PDU scope)."""

    name: str = "RowManager"
    interval: float = ROW_TELEMETRY_INTERVAL_S
    in_band: bool = False
    delay: float = 0.0
    noise_std: float = 0.0
