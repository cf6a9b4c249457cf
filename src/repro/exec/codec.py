"""JSON-primitive (de)serialization of :class:`SimulationResult`.

A result encodes in two forms that decode to the same result:

* the *list form* — :func:`result_to_dict` — holds one latency list per
  priority tier and one per workload. Golden snapshots store it and
  :mod:`repro.obs.diff` walks it. The lists are the result's
  ``per_priority`` and ``per_workload`` views, so they hold each
  latency twice;
* the *log form* — ``result_to_dict(result, serve_log=True)`` — holds
  the result's one :class:`~repro.cluster.metrics.ServeLog` instead:
  each latency once, in serve order, with a (priority, workload) code.
  Its arrays stay numpy arrays; the on-disk layer of the run memo cache
  (:mod:`repro.exec.cache`) packs them as base64 bytes.

Floats survive either form exactly (packed bytes, or ``json``'s
shortest-round-trip text), so a result loaded from disk is
value-identical to the freshly simulated one — which keeps cached
sweeps bit-identical to uncached ones.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.analysis.timeseries import TimeSeries
from repro.cluster.metrics import (
    PRIORITIES,
    PriorityMetrics,
    ServeLog,
    SimulationResult,
    serve_code,
)
from repro.errors import ConfigurationError
from repro.faults.report import RobustnessReport
from repro.powerfail.protection import PowerFailReport

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
#: ``ClusterSimulator(kernel_timers=True)``). Version 7 adds the log
#: form: a ``serve_log`` section in place of ``per_priority`` and
#: ``per_workload``. The list form is unchanged.
SCHEMA_VERSION = 7

#: Schema versions :func:`result_from_dict` can decode. Versions 5 and
#: 6 are list forms (version 5 lacks only the optional ``sim_core``
#: section), so the checked-in v5 golden snapshots and v6 cache
#: entries stay loadable; older cache entries are misses.
COMPATIBLE_SCHEMAS = frozenset({5, 6, SCHEMA_VERSION})


def _metrics_to_dict(metrics: PriorityMetrics) -> Dict[str, Any]:
    return {
        "latencies": list(metrics.latencies),
        "served": metrics.served,
        "dropped": metrics.dropped,
    }


def _lane(tier: Dict[str, Any]) -> List[int]:
    """One tier's latencies as float64 bit patterns, checked against
    its served count."""
    latencies = np.asarray(tier["latencies"], dtype=np.float64)
    if latencies.ndim != 1 or int(tier["served"]) != len(latencies):
        raise ConfigurationError(
            f"tier serves {tier['served']} but lists {latencies.shape} "
            "latencies"
        )
    return latencies.view(np.uint64).tolist()


def _log_from_lists(
    per_priority: Mapping[str, Dict[str, Any]],
    per_workload: Mapping[str, Dict[str, Any]],
) -> ServeLog:
    """Rebuild the serve log of a list-form result.

    A greedy merge restores a serve order: at each step the first
    priority tier whose next latency is also the next latency of some
    workload yields the next served request. Latencies match as float64
    bit patterns, so NaN payloads and signed zeros survive. Whatever
    order the merge completes projects back onto exactly the given
    lists, so the decoded views equal them.

    Raises:
        ConfigurationError: If the lists do not interleave: a tier's
            served count disagrees with its list, the totals differ, or
            the merge finds no pair of equal next latencies.
    """
    if len(per_priority) != len(PRIORITIES):
        raise ConfigurationError(
            f"per_priority lists tiers {sorted(per_priority)}"
        )
    by_priority = [per_priority[p.value] for p in PRIORITIES]
    priority_lanes = [_lane(tier) for tier in by_priority]
    workload_lanes = [_lane(tier) for tier in per_workload.values()]
    total = sum(map(len, priority_lanes))
    if total != sum(map(len, workload_lanes)):
        raise ConfigurationError(
            "per-priority and per-workload lists serve different totals"
        )
    p_next = [0] * len(priority_lanes)
    w_next = [0] * len(workload_lanes)
    bits: List[int] = []
    codes: List[int] = []
    for _ in range(total):
        heads = {}
        for j in reversed(range(len(workload_lanes))):
            if w_next[j] < len(workload_lanes[j]):
                heads[workload_lanes[j][w_next[j]]] = j
        for i, lane in enumerate(priority_lanes):
            if p_next[i] < len(lane):
                head = lane[p_next[i]]
                j = heads.get(head)
                if j is not None:
                    break
        else:
            raise ConfigurationError(
                "per-priority and per-workload latency lists do not "
                "interleave into one serve order"
            )
        bits.append(head)
        codes.append(serve_code(i, j))
        p_next[i] += 1
        w_next[j] += 1
    return ServeLog(
        latencies=np.array(bits, dtype=np.uint64).view(np.float64),
        codes=np.array(codes, dtype=np.int64),
        workloads=tuple(per_workload),
        dropped_by_priority=tuple(int(t["dropped"]) for t in by_priority),
        dropped_by_workload=tuple(
            int(t["dropped"]) for t in per_workload.values()
        ),
    )


def result_to_dict(
    result: SimulationResult, serve_log: bool = False
) -> Dict[str, Any]:
    """Encode a simulation result as JSON-serializable primitives.

    The default is the list form. ``serve_log=True`` gives the log
    form, whose latency, code and power-sample arrays are left as
    numpy arrays for the caller to pack (see the module docstring).
    """
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
    if serve_log:
        log = result.serve_log
        tiers: Dict[str, Any] = {
            "serve_log": {f.name: getattr(log, f.name) for f in fields(log)}
        }
        values = result.power_series.values
    else:
        tiers = {
            "per_priority": {
                priority.value: _metrics_to_dict(metrics)
                for priority, metrics in result.per_priority.items()
            },
            "per_workload": {
                name: _metrics_to_dict(metrics)
                for name, metrics in result.per_workload.items()
            },
        }
        values = result.power_series.values.tolist()
    return {
        "schema": SCHEMA_VERSION,
        **tiers,
        "power_series": {
            "start": result.power_series.start,
            "interval": result.power_series.interval,
            "values": values,
        },
        "provisioned_power_w": result.provisioned_power_w,
        "power_brake_events": result.power_brake_events,
        "capping_actions": result.capping_actions,
        "duration_s": result.duration_s,
        "total_energy_j": result.total_energy_j,
        "robustness": robustness,
        "observability": result.observability,
        "powerfail": powerfail,
    }


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Decode either form of :func:`result_to_dict`.

    Raises:
        ConfigurationError: On a schema-version mismatch, an
            inconsistent serve log, or per-tier lists that do not
            interleave (see :func:`_log_from_lists`).
    """
    if data.get("schema") not in COMPATIBLE_SCHEMAS:
        raise ConfigurationError(
            f"cached result schema {data.get('schema')!r} is not one of "
            f"{sorted(COMPATIBLE_SCHEMAS)}"
        )
    if "serve_log" in data:
        log = ServeLog(**data["serve_log"])
    else:
        log = _log_from_lists(data["per_priority"], data["per_workload"])
    series = data["power_series"]
    robustness = None
    if data.get("robustness") is not None:
        robustness = RobustnessReport(**data["robustness"])
    powerfail = None
    if data.get("powerfail") is not None:
        powerfail = PowerFailReport(**data["powerfail"])
    return SimulationResult(
        serve_log=log,
        power_series=TimeSeries(
            start=float(series["start"]),
            interval=float(series["interval"]),
            values=np.asarray(series["values"], dtype=np.float64),
        ),
        provisioned_power_w=float(data["provisioned_power_w"]),
        power_brake_events=int(data["power_brake_events"]),
        capping_actions=int(data["capping_actions"]),
        duration_s=float(data["duration_s"]),
        total_energy_j=float(data["total_energy_j"]),
        robustness=robustness,
        observability=data.get("observability"),
        powerfail=powerfail,
    )
