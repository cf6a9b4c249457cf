"""Evaluation harness and parameter sweeps behind Figures 13-18.

The harness reproduces the paper's pipeline end to end: synthesize the
production power trace, fit a request trace to it (MAPE-validated), run
the discrete-event simulator under a policy at a given oversubscription
level, and normalize latencies/throughput against the default uncapped
cluster.

When more servers are added, the offered load scales with the deployed
server count — the point of oversubscription is to serve *more* inference
under the same breaker budget, and Figure 16 accordingly shows the same
diurnal pattern "with a higher power offset".

Runs are executed through :class:`~repro.exec.engine.SweepEngine`: every
sweep batches its grid (including the shared uncapped baseline) into one
call, so duplicated points are simulated exactly once per harness, and a
``workers`` argument fans independent runs out over processes. Parallel
output is bit-identical to serial output — see :mod:`repro.exec`.

Simulated durations are configurable: the paper uses a six-week trace;
the benchmarks default to shorter windows (the dynamics that matter —
diurnal peaks, capping responses, brake avoidance — play out within a
couple of days).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.timeseries import TimeSeries
from repro.cluster.metrics import SimulationResult
from repro.cluster.policy_base import PowerPolicy
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy, all_policies
from repro.core.policy import PolcaThresholds
from repro.errors import ConfigurationError
from repro.exec import (
    PolicySpec,
    RunCache,
    RunSpec,
    SweepEngine,
    TraceKey,
    policy_spec_for,
)
from repro.exec import traces as _traces
from repro.faults.plan import FaultPlan
from repro.faults.reliability import ReliabilityConfig
from repro.obs.collect import TraceCollector
from repro.obs.ledger import ExperimentLedger
from repro.units import days
from repro.workloads.replay import TraceSource
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import Priority
from repro.workloads.tracegen import INFERENCE_PROVISIONED_PER_SERVER_W


@dataclass
class EvaluationHarness:
    """Shared setup for the POLCA evaluation experiments.

    Attributes:
        n_base_servers: Designed row size (40, Table 2).
        duration_s: Simulated duration per run.
        provisioned_per_server_w: Breaker budget per designed slot.
        low_priority_fraction: Server split between priority pools.
        seed: Seed shared by trace generation and simulation.
        workers: Default process fan-out for sweeps run through this
            harness (1 = serial; individual sweeps can override).
        cache: The run memo cache shared by every sweep on this harness.
        incremental: Execute sweeps through the checkpointed
            incremental path (:mod:`repro.exec.incremental`): grid
            points sharing a configuration+trace family resume from the
            longest checkpoint before their first controller divergence
            instead of re-simulating the shared prefix. Bit-identical
            to the default path; serial in-parent (see
            :class:`~repro.exec.engine.SweepEngine`).
        checkpoint_epoch_s: Checkpoint spacing for incremental sweeps.
        trace_source: Replay source driving every run of this harness
            (``None`` = the default synthetic pipeline). Flows through
            :class:`~repro.exec.TraceKey` and every spec this harness
            builds, so sweeps under a replayed Azure CSV, a session
            workload, or a flash-crowd overlay use the engine, cache,
            and incremental paths unchanged.
        ledger: Experiment ledger shared by every sweep on this
            harness (see :class:`~repro.obs.ledger.ExperimentLedger`):
            each engine batch appends one entry per unique run —
            identity digests, policy, wall time, provenance, rusage,
            headline metrics, environment stamp. ``None`` (default)
            records nothing; a ledgered sweep is bit-identical to an
            unledgered one.
        collector: Per-run trace spool shared by every sweep on this
            harness (see :class:`~repro.obs.collect.TraceCollector`):
            each simulated run — serial, incremental, pool-worker or
            quarantine — writes one JSONL segment keyed by its content
            digest, queryable afterwards with
            :mod:`repro.obs.query`. ``None`` (default) spools nothing;
            a collected sweep is bit-identical to an uncollected one.
    """

    n_base_servers: int = 40
    duration_s: float = days(2)
    provisioned_per_server_w: float = INFERENCE_PROVISIONED_PER_SERVER_W
    low_priority_fraction: float = 0.5
    seed: int = 0
    workers: int = 1
    cache: RunCache = field(default_factory=RunCache, repr=False)
    incremental: bool = False
    checkpoint_epoch_s: float = 600.0
    trace_source: Optional[TraceSource] = None
    ledger: Optional[ExperimentLedger] = None
    collector: Optional[TraceCollector] = None

    def utilization_trace(self) -> TimeSeries:
        """The production-style target utilization trace (cached)."""
        return _traces.utilization_trace(self.seed, self.duration_s)

    def trace_key(self, added_fraction: float) -> TraceKey:
        """The request-trace cache key for one oversubscription level."""
        n_total = self.n_base_servers + int(round(
            self.n_base_servers * added_fraction
        ))
        return TraceKey(
            seed=self.seed,
            n_servers=n_total,
            provisioned_per_server_w=self.provisioned_per_server_w,
            duration_s=self.duration_s,
            source=self.trace_source,
        )

    def requests_for(self, added_fraction: float) -> List[SampledRequest]:
        """The request trace for a deployment with added servers (cached).

        Load scales with the deployed server count so per-server
        utilization stays on the production pattern. The cache is shared
        process-wide (:mod:`repro.exec.traces`), so harnesses describing
        the same deployment share one trace.
        """
        return _traces.requests_for(self.trace_key(added_fraction))

    def config(
        self,
        added_fraction: float,
        power_scale: float = 1.0,
        low_priority_fraction: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> ClusterConfig:
        """Build the simulator configuration for one run."""
        return ClusterConfig(
            n_base_servers=self.n_base_servers,
            added_fraction=added_fraction,
            provisioned_per_server_w=self.provisioned_per_server_w,
            low_priority_fraction=(
                self.low_priority_fraction
                if low_priority_fraction is None
                else low_priority_fraction
            ),
            power_scale=power_scale,
            seed=self.seed,
            fault_plan=fault_plan,
            reliability=(
                ReliabilityConfig() if reliability is None else reliability
            ),
        )

    def spec(
        self,
        policy: PolicySpec,
        added_fraction: float = 0.0,
        power_scale: float = 1.0,
        low_priority_fraction: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> RunSpec:
        """Describe one run of this harness as an engine-executable spec."""
        return RunSpec(
            config=self.config(
                added_fraction, power_scale, low_priority_fraction,
                fault_plan=fault_plan, reliability=reliability,
            ),
            policy=policy,
            duration_s=self.duration_s,
            trace=self.trace_source,
        )

    def engine(self, workers: Optional[int] = None) -> SweepEngine:
        """A sweep engine over this harness's shared memo cache."""
        return SweepEngine(
            workers=self.workers if workers is None else workers,
            cache=self.cache,
            incremental=self.incremental,
            checkpoint_epoch_s=self.checkpoint_epoch_s,
            ledger=self.ledger,
            collector=self.collector,
        )

    def run(
        self,
        policy: PowerPolicy,
        added_fraction: float = 0.0,
        power_scale: float = 1.0,
        low_priority_fraction: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> SimulationResult:
        """Run one policy at one oversubscription level (memoized).

        Recognized policy configurations (the four named policies, plus
        any POLCA thresholds) go through the engine's memo cache — asking
        twice simulates once, and results are shared with the batched
        sweeps below. Custom policy objects are simulated directly.

        A ``fault_plan`` makes the run's telemetry/actuation/server
        substrate unreliable (the robustness extension); the request
        trace and everything else stay identical, so the result is
        directly comparable against the fault-free run.
        """
        policy_spec = policy_spec_for(policy)
        if policy_spec is not None:
            return self.engine().run(self.spec(
                policy_spec, added_fraction, power_scale,
                low_priority_fraction, fault_plan, reliability,
            ))
        simulator = ClusterSimulator(
            self.config(
                added_fraction, power_scale, low_priority_fraction,
                fault_plan=fault_plan, reliability=reliability,
            ),
            policy,
        )
        return simulator.run(self.requests_for(added_fraction), self.duration_s)

    def baseline(self) -> SimulationResult:
        """The normalization baseline: default servers, no capping (cached)."""
        return self.run(NoCapPolicy(), added_fraction=0.0)

    def baseline_spec(self) -> RunSpec:
        """The baseline as a spec, for batching into sweep executions."""
        return self.spec(PolicySpec("No-cap"), added_fraction=0.0)


@dataclass(frozen=True)
class SweepPoint:
    """One point of the Figure 13/14 added-servers sweep.

    Attributes:
        added_fraction: Oversubscription level (0.30 = 30% more servers).
        normalized_p50: Normalized p50 latency per priority.
        normalized_p99: Normalized p99 latency per priority.
        normalized_throughput: Normalized served fraction per priority.
        power_brake_events: Brake engagements during the run.
    """

    added_fraction: float
    normalized_p50: Dict[Priority, float]
    normalized_p99: Dict[Priority, float]
    normalized_throughput: Dict[Priority, float]
    power_brake_events: int


def _sweep_point(
    fraction: float, result: SimulationResult, baseline: SimulationResult
) -> SweepPoint:
    return SweepPoint(
        added_fraction=fraction,
        normalized_p50={
            p: result.normalized_latencies(p, baseline)["p50"]
            for p in Priority
        },
        normalized_p99={
            p: result.normalized_latencies(p, baseline)["p99"]
            for p in Priority
        },
        normalized_throughput={
            p: result.normalized_throughput(p, baseline)
            for p in Priority
        },
        power_brake_events=result.power_brake_events,
    )


def added_servers_sweep(
    harness: EvaluationHarness,
    thresholds: PolcaThresholds,
    added_fractions: Sequence[float],
    workers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> List[SweepPoint]:
    """Sweep oversubscription levels for one threshold configuration.

    This is the engine behind Figure 13 (one subplot per threshold pair)
    and Figure 14 (throughput for the selected configuration). The whole
    grid — baseline included — executes as one batch; pass ``workers`` to
    fan it out over processes. A ``fault_plan`` applies to the sweep
    points only; the normalization baseline stays fault-free.

    Raises:
        ConfigurationError: If no sweep points are given.
    """
    if not added_fractions:
        raise ConfigurationError("need at least one added_fraction")
    specs = [harness.baseline_spec()]
    for fraction in added_fractions:
        specs.append(harness.spec(
            PolicySpec("POLCA", thresholds),
            added_fraction=fraction,
            fault_plan=fault_plan,
        ))
    results = harness.engine(workers).run_specs(specs)
    baseline = results[0]
    return [
        _sweep_point(fraction, result, baseline)
        for fraction, result in zip(added_fractions, results[1:])
    ]


def threshold_search(
    harness: EvaluationHarness,
    combos: Sequence[Tuple[str, PolcaThresholds]],
    added_fractions: Sequence[float],
    workers: Optional[int] = None,
) -> Dict[Tuple[str, float], SweepPoint]:
    """The full Figure 13 grid: every threshold pair at every level.

    Batches the entire ``combos x added_fractions`` product (plus the
    shared baseline) into a single engine execution, keyed by
    ``(combo_label, added_fraction)`` in the returned mapping.

    Raises:
        ConfigurationError: If no combos or no sweep points are given.
    """
    if not combos or not added_fractions:
        raise ConfigurationError(
            "need at least one threshold combo and one added_fraction"
        )
    keys: List[Tuple[str, float]] = []
    specs = [harness.baseline_spec()]
    for label, thresholds in combos:
        for fraction in added_fractions:
            keys.append((label, fraction))
            specs.append(harness.spec(
                PolicySpec("POLCA", thresholds), added_fraction=fraction
            ))
    results = harness.engine(workers).run_specs(specs)
    baseline = results[0]
    return {
        (label, fraction): _sweep_point(fraction, result, baseline)
        for (label, fraction), result in zip(keys, results[1:])
    }


@dataclass(frozen=True)
class PolicyComparison:
    """One policy's Figure 17/18 outcome at 30% oversubscription.

    Attributes:
        policy_name: Display name ("POLCA", "No-cap+5%", ...).
        normalized_p50 / normalized_p99 / normalized_max: Latency ratios
            per priority against the default uncapped cluster.
        power_brake_events: Brake engagements (Figure 18).
    """

    policy_name: str
    normalized_p50: Dict[Priority, float]
    normalized_p99: Dict[Priority, float]
    normalized_max: Dict[Priority, float]
    power_brake_events: int


def compare_policies(
    harness: EvaluationHarness,
    added_fraction: float = 0.30,
    power_scales: Sequence[float] = (1.0, 1.05),
    workers: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> List[PolicyComparison]:
    """Run every policy (and +5% power variants) at 30% oversubscription.

    Reproduces Figures 17 and 18: the four policies under the standard
    workload and under uniformly 5%-more-power-intensive workloads. The
    whole grid executes as one batch; pass ``workers`` to fan it out.
    A ``fault_plan`` applies to the compared runs only; the baseline
    stays fault-free.
    """
    labels: List[str] = []
    specs = [harness.baseline_spec()]
    for scale in power_scales:
        pct = (scale - 1.0) * 100.0
        suffix = "" if scale == 1.0 else f"{pct:+g}%"
        for name in all_policies():
            labels.append(name + suffix)
            specs.append(harness.spec(
                PolicySpec(name),
                added_fraction=added_fraction,
                power_scale=scale,
                fault_plan=fault_plan,
            ))
    results = harness.engine(workers).run_specs(specs)
    baseline = results[0]
    comparisons: List[PolicyComparison] = []
    for label, result in zip(labels, results[1:]):
        comparisons.append(PolicyComparison(
            policy_name=label,
            normalized_p50={
                p: result.normalized_latencies(p, baseline)["p50"]
                for p in Priority
            },
            normalized_p99={
                p: result.normalized_latencies(p, baseline)["p99"]
                for p in Priority
            },
            normalized_max={
                p: result.normalized_latencies(p, baseline)["max"]
                for p in Priority
            },
            power_brake_events=result.power_brake_events,
        ))
    return comparisons
