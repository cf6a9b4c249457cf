"""JSON (de)serialization of :class:`SimulationResult`.

Backs the on-disk layer of the run memo cache. Floats survive the round
trip exactly (``json`` emits shortest-round-trip representations), so a
result loaded from disk is value-identical to the freshly simulated one
— which keeps cached sweeps bit-identical to uncached ones.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict

import numpy as np

from repro.analysis.timeseries import TimeSeries
from repro.cluster.metrics import PriorityMetrics, SimulationResult
from repro.errors import ConfigurationError
from repro.faults.report import RobustnessReport
from repro.powerfail.protection import PowerFailReport
from repro.workloads.spec import Priority

#: Bump when the serialized layout changes; mismatched entries are
#: treated as cache misses rather than decoded wrongly. Version 2 adds
#: the ``observability`` metrics snapshot. Version 3 extends
#: ``observability`` with the live layer's sections — ``incidents`` /
#: ``alerts`` (see :mod:`repro.obs.alerts`) and ``stream``
#: (:class:`~repro.obs.stream.StreamMonitor` probe values) — and makes
#: gauges nullable (explicit unset state). Version 4 adds the causal
#: layer's ``spans`` / ``attribution`` sections
#: (:mod:`repro.obs.spans`, :mod:`repro.obs.attribution`). Version 5
#: adds the ``powerfail`` section — the power-delivery protection
#: ledger of :mod:`repro.powerfail` (trips, shedding, staged
#: re-energization, exact energy conservation). Version 6 adds the
#: ``sim_core`` observability section (per-event-kind kernel timers of
#: the simulator's event loop, recorded when
#: ``ClusterSimulator(kernel_timers=True)``).
SCHEMA_VERSION = 6

#: Schema versions :func:`result_from_dict` can decode. Version 5 lacks
#: only the optional ``sim_core`` section, so the checked-in v5 golden
#: snapshots stay loadable; older cache entries are misses.
COMPATIBLE_SCHEMAS = frozenset({5, SCHEMA_VERSION})


def _metrics_to_dict(metrics: PriorityMetrics) -> Dict[str, Any]:
    return {
        "latencies": list(metrics.latencies),
        "served": metrics.served,
        "dropped": metrics.dropped,
    }


def _metrics_from_dict(data: Dict[str, Any]) -> PriorityMetrics:
    return PriorityMetrics(
        latencies=[float(v) for v in data["latencies"]],
        served=int(data["served"]),
        dropped=int(data["dropped"]),
    )


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Encode a simulation result as JSON-serializable primitives."""
    robustness = None
    if result.robustness is not None:
        robustness = {
            f.name: getattr(result.robustness, f.name)
            for f in fields(result.robustness)
        }
    powerfail = None
    if result.powerfail is not None:
        powerfail = {
            f.name: getattr(result.powerfail, f.name)
            for f in fields(result.powerfail)
        }
    return {
        "schema": SCHEMA_VERSION,
        "per_priority": {
            priority.value: _metrics_to_dict(metrics)
            for priority, metrics in result.per_priority.items()
        },
        "power_series": {
            "start": result.power_series.start,
            "interval": result.power_series.interval,
            "values": result.power_series.values.tolist(),
        },
        "provisioned_power_w": result.provisioned_power_w,
        "power_brake_events": result.power_brake_events,
        "capping_actions": result.capping_actions,
        "duration_s": result.duration_s,
        "per_workload": {
            name: _metrics_to_dict(metrics)
            for name, metrics in result.per_workload.items()
        },
        "total_energy_j": result.total_energy_j,
        "robustness": robustness,
        "observability": result.observability,
        "powerfail": powerfail,
    }


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Decode a result encoded by :func:`result_to_dict`.

    Raises:
        ConfigurationError: On a schema-version mismatch.
    """
    if data.get("schema") not in COMPATIBLE_SCHEMAS:
        raise ConfigurationError(
            f"cached result schema {data.get('schema')!r} is not one of "
            f"{sorted(COMPATIBLE_SCHEMAS)}"
        )
    series = data["power_series"]
    robustness = None
    if data.get("robustness") is not None:
        robustness = RobustnessReport(**data["robustness"])
    powerfail = None
    if data.get("powerfail") is not None:
        powerfail = PowerFailReport(**data["powerfail"])
    return SimulationResult(
        per_priority={
            Priority(value): _metrics_from_dict(metrics)
            for value, metrics in data["per_priority"].items()
        },
        power_series=TimeSeries(
            start=float(series["start"]),
            interval=float(series["interval"]),
            values=np.asarray(series["values"], dtype=np.float64),
        ),
        provisioned_power_w=float(data["provisioned_power_w"]),
        power_brake_events=int(data["power_brake_events"]),
        capping_actions=int(data["capping_actions"]),
        duration_s=float(data["duration_s"]),
        per_workload={
            name: _metrics_from_dict(metrics)
            for name, metrics in data["per_workload"].items()
        },
        total_energy_j=float(data["total_energy_j"]),
        robustness=robustness,
        observability=data.get("observability"),
        powerfail=powerfail,
    )
