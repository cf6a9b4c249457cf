"""Power monitoring interfaces of an LLM cluster (Table 1).

The paper's Table 1 catalogues the monitoring landscape: RAPL (CPU, in-band,
1-10 ms), DCGM (GPU, in-band, 100 ms+), SMBPBI (GPU, out-of-band, 5 s+),
IPMI (server, OOB, 1-5 s), and the row manager (row of racks, OOB, 2 s).
Each simulated interface records its interval, path, reporting delay and
measurement noise (:class:`~repro.telemetry.base.SampledInterface`); the
cluster simulator measures its row power through one such interface on
every telemetry tick. SMBPBI's 40 s actuation latency (Table 2) sets the
simulator's OOB command latency; the commands themselves travel the one
path in :mod:`repro.control.actuator`.
"""

from repro.telemetry.dcgm import DcgmMonitor
from repro.telemetry.ipmi import IpmiMonitor
from repro.telemetry.smbpbi import SmbpbiInterface
from repro.telemetry.row_manager import RowManager
from repro.telemetry.registry import INTERFACE_CATALOG

__all__ = [
    "DcgmMonitor",
    "INTERFACE_CATALOG",
    "IpmiMonitor",
    "RowManager",
    "SmbpbiInterface",
]
