"""The four benchmark workloads and the result fingerprint.

Each workload is a closed batch: one sweep is submitted through the
public ``repro.core.sweeps`` entry points and the iteration waits for
it. Why each one was chosen is in README.md. Imports ``repro``, so the
child process imports this module only after putting ``src`` on the
path.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.metrics import SimulationResult
from repro.core import sweeps
from repro.core.baselines import all_policies
from repro.core.policy import POLCA_DEFAULTS, DualThresholdPolicy, PolcaThresholds
from repro.exec import PolicySpec, RunCache, RunSpec
from repro.faults.plan import FaultPlan
from repro.obs.collect import TraceCollector
from repro.obs.ledger import ExperimentLedger
from repro.units import hours
from repro.workloads.spec import Priority

#: The Figure 13 threshold pairs.
COMBOS = (
    ("75-85", PolcaThresholds(t1=0.75, t2=0.85)),
    ("80-89", PolcaThresholds(t1=0.80, t2=0.89)),
    ("85-95", PolcaThresholds(t1=0.85, t2=0.95)),
)

#: The overhead-bounded site config of the recording-overhead benchmark:
#: low-rate kinds kept in full, ``serve`` hash-sampled at 5%.
OBS_KEEP_KINDS = (
    "brake_cancel_release", "brake_issue", "brake_land", "brake_reissue",
    "brake_release_request", "brake_request", "brake_verify",
    "cap_issue", "cap_land", "cap_reissue", "cap_verify",
    "capacity_status", "drop", "fallback_enter", "fallback_exit",
    "phase_rescale", "reenergize", "reenergize_done", "run_meta",
    "serve", "server_fail", "server_recover",
    "shed_defer", "shed_engage", "shed_release",
    "telemetry_fault", "trip_risk",
)
OBS_SERVE_RATE = 0.05

#: Oversubscription of the policy comparison and the single long run.
OVERSUBSCRIPTION = 0.30


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name, as given to ``--workload``.
        sweep: ``grid`` (``threshold_search``), ``policies``
            (``compare_policies``) or ``single`` (one POLCA run).
        n_base_servers: Designed row size.
        hours: Simulated horizon per run.
        combos: Threshold pairs of a grid sweep.
        fractions: Added-server fractions of a grid sweep.
        power_scales: Power scales of a policy comparison.
        incremental: Run through checkpointed incremental execution.
        faulty_pool: Adversarial faults, a process pool of
            ``min(2, nproc)`` workers, and sampled trace spooling.
    """

    name: str
    sweep: str
    n_base_servers: int = 10
    hours: float = 12.0
    combos: Tuple[Tuple[str, PolcaThresholds], ...] = COMBOS
    fractions: Tuple[float, ...] = ()
    power_scales: Tuple[float, ...] = (1.0, 1.05)
    incremental: bool = False
    faulty_pool: bool = False

    def smoke(self) -> "Workload":
        """A half-hour, one-combo version for the harness's own tests."""
        return replace(
            self, hours=0.5, combos=self.combos[:1],
            power_scales=self.power_scales[:1],
        )

    @property
    def workers(self) -> int:
        return min(2, os.cpu_count() or 1) if self.faulty_pool else 1

    def harness(
        self,
        seed: int,
        cache: Optional[RunCache] = None,
        collector: Optional[TraceCollector] = None,
        ledger: Optional[ExperimentLedger] = None,
    ) -> sweeps.EvaluationHarness:
        return sweeps.EvaluationHarness(
            n_base_servers=self.n_base_servers,
            duration_s=hours(self.hours),
            seed=seed,
            workers=self.workers,
            cache=RunCache() if cache is None else cache,
            incremental=self.incremental,
            checkpoint_epoch_s=3600.0,
            ledger=ledger,
            collector=collector,
        )

    def collector(self, directory) -> Optional[TraceCollector]:
        if not self.faulty_pool:
            return None
        return TraceCollector(
            directory, kinds=OBS_KEEP_KINDS, sample={"serve": OBS_SERVE_RATE}
        )

    def fault_plan(self, seed: int) -> Optional[FaultPlan]:
        return FaultPlan.adversarial(seed) if self.faulty_pool else None

    def trace_fractions(self) -> Tuple[float, ...]:
        """Added fractions whose request traces the sweep replays."""
        if self.sweep == "grid":
            return (0.0,) + self.fractions
        if self.sweep == "policies":
            return (0.0, OVERSUBSCRIPTION)
        return (OVERSUBSCRIPTION,)

    def run(self, harness: sweeps.EvaluationHarness, seed: int) -> None:
        """Submit the sweep and wait for it."""
        if self.sweep == "grid":
            sweeps.threshold_search(harness, self.combos, self.fractions)
        elif self.sweep == "policies":
            sweeps.compare_policies(
                harness, OVERSUBSCRIPTION, self.power_scales,
                fault_plan=self.fault_plan(seed),
            )
        else:
            harness.run(
                DualThresholdPolicy(POLCA_DEFAULTS),
                added_fraction=OVERSUBSCRIPTION,
            )

    def labeled_specs(
        self, harness: sweeps.EvaluationHarness, seed: int
    ) -> List[Tuple[str, RunSpec]]:
        """Every run :meth:`run` returns, labeled as the figure labels it."""
        if self.sweep == "single":
            return [("POLCA", harness.spec(
                PolicySpec("POLCA", POLCA_DEFAULTS),
                added_fraction=OVERSUBSCRIPTION,
            ))]
        labeled = [("baseline", harness.baseline_spec())]
        if self.sweep == "grid":
            for label, thresholds in self.combos:
                for fraction in self.fractions:
                    labeled.append((f"{label}@{fraction:.2f}", harness.spec(
                        PolicySpec("POLCA", thresholds),
                        added_fraction=fraction,
                    )))
            return labeled
        plan = self.fault_plan(seed)
        for scale in self.power_scales:
            suffix = "" if scale == 1.0 else f"{(scale - 1.0) * 100.0:+g}%"
            for name in all_policies():
                labeled.append((name + suffix, harness.spec(
                    PolicySpec(name),
                    added_fraction=OVERSUBSCRIPTION,
                    power_scale=scale,
                    fault_plan=plan,
                )))
        return labeled


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("fig13_serial", "grid", fractions=(0.20, 0.40)),
        Workload("fig18_faults_pool", "policies", faulty_pool=True),
        Workload("fig13_incremental", "grid", n_base_servers=20, hours=8.0,
                 fractions=(0.10, 0.20), incremental=True),
        Workload("day_polca", "single", n_base_servers=20, hours=24.0),
    )
}


def fingerprint(result: SimulationResult) -> Dict:
    """Everything a performance change must leave bit-identical."""
    per_priority = {}
    for priority in Priority:
        tier = result.per_priority[priority]
        entry = {"served": tier.served, "dropped": tier.dropped}
        if tier.latencies:
            summary = tier.summary()
            entry["p50"] = repr(float(summary.p50))
            entry["p99"] = repr(float(summary.p99))
        per_priority[priority.value] = entry
    power = np.ascontiguousarray(result.power_series.values, dtype=np.float64)
    return {
        "per_priority": per_priority,
        "per_workload": {
            name: [tier.served, tier.dropped]
            for name, tier in sorted(result.per_workload.items())
        },
        "brakes": result.power_brake_events,
        "caps": result.capping_actions,
        "energy_j": repr(float(result.total_energy_j)),
        "power_sha256": hashlib.sha256(power.tobytes()).hexdigest(),
    }


def offered_requests(result: SimulationResult) -> int:
    """Simulated requests offered to a run (served plus dropped)."""
    return sum(tier.offered for tier in result.per_priority.values())
