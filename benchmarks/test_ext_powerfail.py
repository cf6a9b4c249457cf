"""Extension: the power-safety study under breaker-trip modeling.

The paper's premise is that POLCA makes 30% oversubscription *safe* —
the row breaker never sees a sustained overload. This extension closes
the loop by simulating the breaker itself (:mod:`repro.powerfail`):
inverse-time trip curves on a server → rack → row hierarchy, emergency
load shedding, and staged re-energization. The Figure 18 stress
scenario (2 h peak window, +5% power, 30% oversubscription) runs
against three stacks:

* POLCA at the Table 5 thresholds — must finish with **zero trips**
  and thermal accumulators that stay essentially cold;
* an ``Unmanaged`` row (no caps, no brake, emergency response off) —
  must **trip at least once**, losing its in-flight requests;
* the same unmanaged row with the emergency layer on — shedding must
  engage and reduce trips versus the unprotected run.

The unmanaged trip run streams to ``TRACE_powerfail.jsonl`` at the repo
root (a CI artifact); the trace is accepted only if
``repro.obs.cross_check`` re-derives every trip/shed/re-energization
counter from it and the causal attribution conserves latency exactly.
The trip census and energy-conservation summary land in
``BENCH_powerfail.json`` next to it.
"""

import json
from pathlib import Path

from conftest import print_table

from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import UnmanagedPolicy
from repro.core.policy import DualThresholdPolicy
from repro.obs import JsonlRecorder, attribute_run, cross_check
from repro.powerfail import EmergencyConfig, ProtectionSpec
from repro.units import hours
from repro.workloads.tracegen import (
    ProductionTraceModel,
    SyntheticTraceGenerator,
)

TRACE_PATH = Path(__file__).resolve().parent.parent / "TRACE_powerfail.jsonl"
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_powerfail.json"
TRACE_HOURS = 2.0
N_BASE, ADDED, POWER_SCALE = 40, 0.30, 1.05


def build_requests(n_servers):
    utilization = ProductionTraceModel(peak_hour=0.5, seed=1).generate(
        duration_s=hours(TRACE_HOURS)
    )
    synthetic = SyntheticTraceGenerator(
        n_servers=n_servers, seed=1
    ).generate(utilization)
    synthetic.validate()
    return synthetic.requests


def protected_config(emergency_enabled):
    return ClusterConfig(
        n_base_servers=N_BASE, added_fraction=ADDED,
        power_scale=POWER_SCALE, seed=1,
        protection=ProtectionSpec(
            emergency=EmergencyConfig(enabled=emergency_enabled)
        ),
    )


def run_study():
    requests = build_requests(protected_config(False).n_servers)
    polca = ClusterSimulator(
        protected_config(True), DualThresholdPolicy()
    ).run(list(requests), hours(TRACE_HOURS))
    with JsonlRecorder(str(TRACE_PATH)) as recorder:
        unmanaged = ClusterSimulator(
            protected_config(False), UnmanagedPolicy(), recorder=recorder
        ).run(list(requests), hours(TRACE_HOURS))
    sheltered = ClusterSimulator(
        protected_config(True), UnmanagedPolicy()
    ).run(list(requests), hours(TRACE_HOURS))
    return polca, unmanaged, sheltered


def test_ext_powerfail(benchmark):
    polca, unmanaged, sheltered = benchmark.pedantic(
        run_study, rounds=1, iterations=1
    )
    census = {
        "POLCA": polca.powerfail,
        "Unmanaged": unmanaged.powerfail,
        "Unmanaged+shed": sheltered.powerfail,
    }
    rows = [
        (label, pf.trips, pf.requests_lost_to_trips,
         pf.requests_dropped_shed, pf.requests_deferred,
         f"{pf.peak_accumulator:.3f}")
        for label, pf in census.items()
    ]
    print_table(
        "Power-safety study — breaker trips "
        "(2 h peak, +5% power, 30% oversubscription)",
        ["stack", "trips", "lost", "shed", "deferred", "peak heat"],
        rows,
    )
    # The census artifact is written before the claim asserts so CI
    # uploads it (and the regression sentinel can diff it) even when a
    # claim regresses.
    report = attribute_run(TRACE_PATH)
    summary = {
        "scenario": {
            "n_base_servers": N_BASE,
            "added_fraction": ADDED,
            "power_scale": POWER_SCALE,
            "trace_hours": TRACE_HOURS,
        },
        "census": {
            label: {
                "trips": pf.trips,
                "cascade_trips": pf.cascade_trips,
                "reenergizations": pf.reenergizations,
                "requests_lost_to_trips": pf.requests_lost_to_trips,
                "requests_dropped_shed": pf.requests_dropped_shed,
                "requests_deferred": pf.requests_deferred,
                "shed_engagements": pf.shed_engagements,
                "peak_accumulator": pf.peak_accumulator,
                "energy_conserved_exactly": pf.energy_conserved_exactly,
            }
            for label, pf in census.items()
        },
        "trace_artifact": TRACE_PATH.name,
        "trip_drops_attributed": report.drops_by_cause.get("trip", 0),
    }
    REPORT_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\ntrip trace: {TRACE_PATH.name}; census: {REPORT_PATH.name}")
    benchmark.extra_info.update(summary["census"])

    # POLCA keeps the breakers cold: zero trips, and no accumulator
    # (row, rack, or server fuse) ever gets meaningfully warm — well
    # under 5% of its trip point (the unmanaged stack, by contrast,
    # trips outright at 100%).
    assert census["POLCA"].trips == 0
    assert census["POLCA"].peak_accumulator < 0.05
    # The unmanaged row trips; emergency shedding reduces trips.
    assert census["Unmanaged"].trips >= 1
    assert census["Unmanaged+shed"].trips < census["Unmanaged"].trips
    assert census["Unmanaged+shed"].shed_engagements >= 1
    # Every ledger's exact (rational-arithmetic) energy mirror must
    # balance: row == sum(racks) == sum(server fuses), across trips.
    for label, pf in census.items():
        assert pf.energy_conserved_exactly, f"{label} leaked energy"
    # Every trip/shed/re-energization event in the artifact must
    # re-derive the result's counters (two independent accountings).
    cross_check(TRACE_PATH, unmanaged).require_ok()
    # Causal attribution across a trip: latency conserves exactly and
    # the lost requests show up as trip drops.
    assert report.requests, "no attributable requests in the trace"
    assert not report.conservation_violations
    assert report.latency_mismatches == 0
    assert report.drops_by_cause.get("trip", 0) == \
        census["Unmanaged"].requests_lost_to_trips
