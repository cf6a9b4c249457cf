"""Result accounting for cluster simulations.

A run's served requests live in one :class:`ServeLog`: a float64
latency per served request in serve order, one code per request for
its (priority, workload) pair, and the drop counts. Figures 13-18 and
Table 6 read that stream two ways — by priority tier for the SLOs and
by workload — so :class:`SimulationResult` derives ``per_priority``
and ``per_workload`` from the log as read-only views. Masking keeps
serve order, so each view holds exactly the latencies a per-tier list
appended at serve time would hold. The result also carries the row
power series and the power-management event log.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.stats import LatencySummary, summarize_latencies
from repro.analysis.timeseries import TimeSeries, max_swing
from repro.errors import ConfigurationError
from repro.workloads.spec import Priority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.report import RobustnessReport
    from repro.powerfail.protection import PowerFailReport


#: Priority tiers in code order: a serve code names priority
#: ``PRIORITIES[code % len(PRIORITIES)]`` of workload
#: ``workloads[code // len(PRIORITIES)]``.
PRIORITIES: Tuple[Priority, ...] = tuple(Priority)
_PRIORITY_INDEX = {
    priority: index for index, priority in enumerate(PRIORITIES)
}
_N_PRIORITIES = len(PRIORITIES)


@dataclass(frozen=True)
class PriorityMetrics:
    """One tier's view of a run: a priority or a workload.

    Attributes:
        latencies: End-to-end latencies of completed requests (seconds),
            in serve order.
        served: Completed request count.
        dropped: Requests rejected because the pool was saturated.
    """

    latencies: List[float] = field(default_factory=list)
    served: int = 0
    dropped: int = 0

    @property
    def offered(self) -> int:
        """Requests offered to this tier."""
        return self.served + self.dropped

    @property
    def served_fraction(self) -> float:
        """Throughput as the fraction of offered requests served."""
        if self.offered == 0:
            return 1.0
        return self.served / self.offered

    def summary(self) -> LatencySummary:
        """Latency percentile summary.

        Raises:
            ConfigurationError: If no request completed.
        """
        return summarize_latencies(self.latencies)


def serve_code(priority_index: int, workload_index: int) -> int:
    """The code of a request of ``PRIORITIES[priority_index]`` and the
    log's workload ``workload_index``."""
    return workload_index * _N_PRIORITIES + priority_index


def _code_dtype(n_workloads: int) -> np.dtype:
    """The narrowest unsigned dtype holding every code of the log."""
    return np.min_scalar_type(max(n_workloads * _N_PRIORITIES - 1, 0))


@dataclass(frozen=True, eq=False)
class ServeLog:
    """Every served request of one run, once, and the drop counts.

    Attributes:
        latencies: float64 latency per served request, in serve order.
        codes: Per served request, its :func:`serve_code`, stored in
            the narrowest unsigned dtype that holds every code.
        workloads: Workload names in first-touch order, where a request
            touches its workload when it is served or dropped.
        dropped_by_priority: Drops per tier of :data:`PRIORITIES`.
        dropped_by_workload: Drops per entry of ``workloads``.

    Raises:
        ConfigurationError: If the fields disagree: lengths, a code out
            of range, a repeated workload, a negative drop count, or
            drop totals that differ between priorities and workloads.
    """

    latencies: np.ndarray
    codes: np.ndarray
    workloads: Tuple[str, ...] = ()
    dropped_by_priority: Tuple[int, ...] = (0,) * _N_PRIORITIES
    dropped_by_workload: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        workloads = tuple(self.workloads)
        latencies = np.asarray(self.latencies, dtype=np.float64)
        codes = np.asarray(self.codes)
        if latencies.ndim != 1 or codes.shape != latencies.shape:
            raise ConfigurationError(
                f"serve log holds {latencies.shape} latencies but "
                f"{codes.shape} codes"
            )
        if codes.size and (
            codes.dtype.kind not in "iu" or codes.min() < 0
            or codes.max() >= len(workloads) * _N_PRIORITIES
        ):
            raise ConfigurationError("serve log code out of range")
        by_priority = tuple(int(n) for n in self.dropped_by_priority)
        by_workload = tuple(int(n) for n in self.dropped_by_workload)
        if len(set(workloads)) != len(workloads) \
                or len(by_priority) != _N_PRIORITIES \
                or len(by_workload) != len(workloads) \
                or min(by_priority + by_workload) < 0 \
                or sum(by_priority) != sum(by_workload):
            raise ConfigurationError(
                f"serve log drop counts {by_priority} by priority and "
                f"{by_workload} by workload {workloads} do not agree"
            )
        object.__setattr__(self, "latencies", latencies)
        object.__setattr__(
            self, "codes", codes.astype(_code_dtype(len(workloads)), copy=False)
        )
        object.__setattr__(self, "workloads", workloads)
        object.__setattr__(self, "dropped_by_priority", by_priority)
        object.__setattr__(self, "dropped_by_workload", by_workload)

    def priority_index(self) -> np.ndarray:
        """Each served request's index into :data:`PRIORITIES`."""
        return self.codes % _N_PRIORITIES

    def workload_index(self) -> np.ndarray:
        """Each served request's index into ``workloads``."""
        return self.codes // _N_PRIORITIES

    def per_priority(self) -> Dict[Priority, PriorityMetrics]:
        """One view per priority tier, every tier present."""
        lanes = self.priority_index()
        return {
            priority: self._view(lanes == index, dropped)
            for index, (priority, dropped)
            in enumerate(zip(PRIORITIES, self.dropped_by_priority))
        }

    def per_workload(self) -> Dict[str, PriorityMetrics]:
        """One view per touched workload, in first-touch order."""
        lanes = self.workload_index()
        return {
            name: self._view(lanes == index, dropped)
            for index, (name, dropped)
            in enumerate(zip(self.workloads, self.dropped_by_workload))
        }

    def _view(self, mask: np.ndarray, dropped: int) -> PriorityMetrics:
        latencies = self.latencies[mask].tolist()
        return PriorityMetrics(latencies, len(latencies), dropped)


class ServeLogBuilder:
    """Appends one run's serves and drops; :meth:`build` freezes them.

    The simulator appends one latency and one code per served request;
    a drop only bumps two counters. The builder pickles with the
    simulation core's checkpoints.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.codes = array("B")
        self.workload_index: Dict[str, int] = {}
        self.dropped_by_priority = [0] * _N_PRIORITIES
        self.dropped_by_workload: List[int] = []

    def serve(self, priority: Priority, workload: str, latency: float) -> None:
        """Log one completed request."""
        code = self._code(priority, workload)  # may widen ``codes``
        self.latencies.append(latency)
        self.codes.append(code)

    def drop(self, priority: Priority, workload: str) -> None:
        """Count one dropped request."""
        code = self._code(priority, workload)
        self.dropped_by_priority[code % _N_PRIORITIES] += 1
        self.dropped_by_workload[code // _N_PRIORITIES] += 1

    def _code(self, priority: Priority, workload: str) -> int:
        index = self.workload_index.get(workload)
        if index is None:
            index = self.workload_index[workload] = len(self.workload_index)
            self.dropped_by_workload.append(0)
            if (index + 1) * _N_PRIORITIES > 256 and self.codes.typecode == "B":
                self.codes = array("I", self.codes)
        # serve_code, inlined: this runs once per served request.
        return index * _N_PRIORITIES + _PRIORITY_INDEX[priority]

    def build(self) -> ServeLog:
        """The log of everything appended so far."""
        return ServeLog(
            latencies=np.array(self.latencies, dtype=np.float64),
            codes=np.array(self.codes),
            workloads=tuple(self.workload_index),
            dropped_by_priority=tuple(self.dropped_by_priority),
            dropped_by_workload=tuple(self.dropped_by_workload),
        )


@dataclass
class SimulationResult:
    """Everything a cluster simulation run produced.

    Attributes:
        serve_log: Every served request's latency and (priority,
            workload) code in serve order, plus the drop counts. The
            ``per_priority`` and ``per_workload`` views derive from it.
        power_series: Row power sampled at the telemetry interval (W).
        provisioned_power_w: The row's breaker budget.
        power_brake_events: Number of distinct brake engagements
            (Figure 18's metric; the Table 6 SLO demands zero).
        capping_actions: Number of frequency-cap commands issued.
        duration_s: Simulated wall-clock duration.
        total_energy_j: Exact row energy over the run (server power is
            piecewise constant between events, so the integral is exact).
        robustness: Fault ledger and breaker-exposure summary of the run
            (populated by the simulator; trivially mostly-zero when no
            fault plan was active).
        observability: Metrics-registry snapshot (counters, gauges,
            histograms) of an instrumented run; ``None`` when the run
            used the default :class:`~repro.obs.recorder.NullRecorder`.
            See :func:`repro.obs.metrics.aggregate_snapshots` for
            merging these across a sweep.
        powerfail: Trip/shed/re-energization ledger of the power-
            delivery protection layer (see :mod:`repro.powerfail`);
            ``None`` when ``ClusterConfig.protection`` was unset.
    """

    serve_log: ServeLog
    power_series: TimeSeries
    provisioned_power_w: float
    power_brake_events: int
    capping_actions: int
    duration_s: float
    total_energy_j: float = 0.0
    robustness: Optional["RobustnessReport"] = None
    observability: Optional[Dict[str, Any]] = None
    powerfail: Optional["PowerFailReport"] = None

    @cached_property
    def per_priority(self) -> Mapping[Priority, PriorityMetrics]:
        """Metrics per priority tier (a read-only view of the log)."""
        return MappingProxyType(self.serve_log.per_priority())

    @cached_property
    def per_workload(self) -> Mapping[str, PriorityMetrics]:
        """Metrics per Table 6 workload name (Summarize, Search, Chat)
        for workload-level SLO analysis (a read-only view of the log)."""
        return MappingProxyType(self.serve_log.per_workload())

    def __getstate__(self) -> Dict[str, Any]:
        # The views are rebuilt on demand; pickles carry the log alone.
        state = dict(self.__dict__)
        state.pop("per_priority", None)
        state.pop("per_workload", None)
        return state

    def latency_summary(self, priority: Priority) -> LatencySummary:
        """Latency summary for one tier."""
        return self.per_priority[priority].summary()

    def normalized_latencies(
        self, priority: Priority, baseline: "SimulationResult"
    ) -> Dict[str, float]:
        """p50/p99/max latency ratios against a baseline run.

        This is the y-axis of Figures 13, 15, and 17 ("Normalized pXX
        latency" relative to the default, uncapped cluster).
        """
        mine = self.latency_summary(priority)
        theirs = baseline.latency_summary(priority)
        return mine.normalized_to(theirs)

    def normalized_throughput(
        self, priority: Priority, baseline: "SimulationResult"
    ) -> float:
        """Served-fraction ratio against a baseline run (Figure 14)."""
        base = baseline.per_priority[priority].served_fraction
        if base == 0:
            raise ConfigurationError("baseline served nothing")
        return self.per_priority[priority].served_fraction / base

    @property
    def peak_utilization(self) -> float:
        """Peak row power over provisioned power."""
        return self.power_series.peak() / self.provisioned_power_w

    @property
    def mean_utilization(self) -> float:
        """Mean row power over provisioned power."""
        return self.power_series.mean() / self.provisioned_power_w

    def max_swing_fraction(self, window_seconds: float) -> float:
        """Largest power rise within a window, as a provisioned fraction
        (Table 4's 'Max. power spike in 2s / 40s' rows)."""
        return max_swing(self.power_series, window_seconds) / self.provisioned_power_w

    @property
    def total_served(self) -> int:
        """Requests completed across both priority tiers."""
        return len(self.serve_log.latencies)

    @property
    def energy_per_request_j(self) -> float:
        """Row energy divided by served requests (the efficiency metric
        energy-oriented work optimizes; POLCA targets peak power, but the
        two interact).

        Raises:
            ConfigurationError: If no request completed.
        """
        if self.total_served == 0:
            raise ConfigurationError("no requests served")
        return self.total_energy_j / self.total_served

    def workload_summary(self, workload_name: str) -> "LatencySummary":
        """Latency summary for one Table 6 workload.

        Raises:
            ConfigurationError: If the workload saw no completions.
        """
        if workload_name not in self.per_workload:
            raise ConfigurationError(
                f"no metrics recorded for workload {workload_name!r}"
            )
        return self.per_workload[workload_name].summary()
