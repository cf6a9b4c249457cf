"""The discrete-event cluster simulator (Section 6.4's evaluation vehicle).

Simulates a row of BLOOM-176B inference servers under a power-management
policy:

* requests arrive from a (synthetic production) trace, are routed by a
  priority-aware load balancer, and execute as prompt+token phase
  segments whose durations stretch under frequency caps;
* the row power — a running sum over piecewise-constant server powers —
  is observed every 2 s (Table 2) through a
  :class:`~repro.telemetry.base.SampledInterface` and fed to the policy;
* frequency-cap and brake commands are issued through a
  :class:`~repro.control.actuator.Actuator` (40 s OOB / 5 s brake
  latency, Table 2) rather than landing by fiat.

Because the telemetry and actuation paths are real interfaces, a
:class:`~repro.faults.FaultPlan` can make them lie: dropped or frozen
samples, noise and spikes, silently failed or late commands, and server
churn. The control loop is hardened accordingly (Section 3.3's
"may sometimes fail without signaling completion or errors"):

* every command carries a verify-after deadline; unacknowledged commands
  are re-issued with capped exponential backoff;
* when telemetry goes stale beyond a configurable threshold the
  controller falls back to conservative safe caps, and engages the brake
  if the outage outlasts the UPS deadline;
* a :class:`~repro.faults.RobustnessReport` ledgers every injected fault
  against what was detected and recovered, plus the exact time the true
  row power spent above the breaker budget.

With no fault plan (or an all-zeros one) every fault path is inert and
the simulator is bit-identical to the original POLCA reproduction. The
simulator is deterministic for a fixed seed, plan, and request trace.

The event loop itself lives in :class:`repro.cluster.core.SimulationCore`,
which dispatches each event kind to one handler method, keeps
per-server state only on the :class:`~repro.cluster.server_sim.ServerSim`
objects, and exposes checkpoint/restore (for
:mod:`repro.exec.incremental`). ``ClusterSimulator`` is the stable
facade: configuration, server/pool construction, and run orchestration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.core import SimulationCore
from repro.cluster.loadbalancer import LoadBalancer, split_servers
from repro.cluster.metrics import SimulationResult
from repro.cluster.policy_base import PowerPolicy
from repro.cluster.server_sim import ServerPowerModel, ServerSim
from repro.control.actions import ActionKind
from repro.control.actuator import Actuator
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.faults.reliability import ReliabilityConfig
from repro.gpu.specs import A100_80GB
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.powerfail.topology import ProtectionSpec
from repro.telemetry.smbpbi import SMBPBI_ACTUATION_LATENCY_S
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import Priority
from repro.workloads.tracegen import INFERENCE_PROVISIONED_PER_SERVER_W


@dataclass(frozen=True)
class ClusterConfig:
    """Static configuration of one simulation run.

    Attributes:
        n_base_servers: Designed server count (Table 2: 40).
        added_fraction: Extra servers deployed via oversubscription
            (0.30 adds 12 servers to the default 40).
        provisioned_per_server_w: Breaker budget per *designed* server
            slot; the budget does not grow with added servers.
        low_priority_fraction: Share of servers in the low-priority pool
            (Figure 15b's sweep knob).
        telemetry_interval_s: Row telemetry period (Table 2: 2 s).
        oob_latency_s: Frequency-cap actuation latency (Table 2: 40 s).
        brake_latency_s: Power-brake latency (Table 2: 5 s).
        brake_hold_s: Minimum time the brake stays engaged once active.
        power_scale: GPU dynamic-power multiplier (1.05 = the "+5%"
            robustness scenario of Section 6.6).
        seed: RNG seed for load-balancer tie-breaking.
        fault_plan: Faults to inject during the run; ``None`` (or an
            all-zeros plan) leaves every interface perfect.
        reliability: Reliable-command and graceful-degradation knobs.
        protection: The power-delivery protection hierarchy (breakers,
            trip curves, emergency shedding — see
            :mod:`repro.powerfail`); ``None`` models infinite breaker
            capacity and is bit-identical to the unprotected simulator.
    """

    n_base_servers: int = 40
    added_fraction: float = 0.0
    provisioned_per_server_w: float = INFERENCE_PROVISIONED_PER_SERVER_W
    low_priority_fraction: float = 0.5
    telemetry_interval_s: float = 2.0
    oob_latency_s: float = SMBPBI_ACTUATION_LATENCY_S
    brake_latency_s: float = 5.0
    brake_hold_s: float = 60.0
    power_scale: float = 1.0
    seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    protection: Optional[ProtectionSpec] = None

    def __post_init__(self) -> None:
        if self.n_base_servers <= 0:
            raise ConfigurationError("n_base_servers must be positive")
        if self.added_fraction < 0:
            raise ConfigurationError("added_fraction cannot be negative")
        if self.provisioned_per_server_w <= 0:
            raise ConfigurationError(
                "provisioned_per_server_w must be positive"
            )
        if not 0.0 <= self.low_priority_fraction <= 1.0:
            raise ConfigurationError(
                "low_priority_fraction must be within [0, 1], got "
                f"{self.low_priority_fraction}"
            )
        if self.telemetry_interval_s <= 0:
            raise ConfigurationError("telemetry_interval_s must be positive")
        if self.oob_latency_s < 0:
            raise ConfigurationError("oob_latency_s cannot be negative")
        if self.brake_latency_s < 0:
            raise ConfigurationError("brake_latency_s cannot be negative")
        if self.brake_hold_s < 0:
            raise ConfigurationError("brake_hold_s cannot be negative")
        if self.power_scale <= 0:
            raise ConfigurationError("power_scale must be positive")

    @property
    def n_servers(self) -> int:
        """Deployed server count after oversubscription."""
        return self.n_base_servers + int(round(
            self.n_base_servers * self.added_fraction
        ))

    @property
    def provisioned_power_w(self) -> float:
        """The row breaker budget (fixed at the designed capacity)."""
        return self.n_base_servers * self.provisioned_per_server_w


class ClusterSimulator:
    """Runs one policy against one request trace on one row.

    Pass a :class:`~repro.obs.recorder.TraceRecorder` to capture the
    run's event stream (control decisions, cap/brake lifecycles,
    fallback windows, churn, serves and drops) and a metrics snapshot in
    ``SimulationResult.observability``. Live consumers — a
    :class:`~repro.obs.stream.StreamMonitor`, an
    :class:`~repro.obs.alerts.AlertEngine`, or a
    :class:`~repro.obs.stream.TeeRecorder` composing them with storage
    sinks — attach the same way and additionally contribute their
    sections (stream values, incidents) to the snapshot. The default is
    the shared :data:`~repro.obs.recorder.NULL_RECORDER`: every hook
    point is guarded by ``recorder.enabled``, so an unrecorded run
    builds no event payloads and stays bit-identical to an
    uninstrumented one.

    ``kernel_timers=True`` additionally times the event loop per event
    kind and surfaces the counters in
    ``result.observability["sim_core"]`` (see
    :class:`~repro.cluster.core.KernelTimers`); the default runs the
    untimed loop with zero overhead.
    """

    def __init__(
        self,
        config: ClusterConfig,
        policy: PowerPolicy,
        recorder: Optional[TraceRecorder] = None,
        kernel_timers: bool = False,
    ) -> None:
        self.config = config
        self.policy = policy
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.kernel_timers = kernel_timers
        self.power_model = ServerPowerModel(
            gpu=A100_80GB, power_scale=config.power_scale
        )
        power_model = self.power_model
        server_ids = [f"s{i}" for i in range(config.n_servers)]
        assignment = split_servers(server_ids, config.low_priority_fraction)
        self.servers: List[ServerSim] = [
            ServerSim(
                server_id=sid,
                priority=assignment[sid],
                power_model=power_model,
            )
            for sid in server_ids
        ]
        self._index_by_priority: Dict[Priority, List[int]] = {
            p: [i for i, s in enumerate(self.servers) if s.priority is p]
            for p in Priority
        }
        self._ids_by_priority: Dict[Priority, frozenset] = {
            p: frozenset(self.servers[i].server_id for i in indices)
            for p, indices in self._index_by_priority.items()
        }
        self._all_ids = frozenset(s.server_id for s in self.servers)
        self.balancer = LoadBalancer(self.servers, seed=config.seed)

    # ------------------------------------------------------------------
    def _build_actuator(self, plan: FaultPlan) -> Actuator:
        """The row's OOB command pipeline, with the plan's unreliability."""
        return Actuator(
            latencies={
                ActionKind.FREQUENCY_LOCK: self.config.oob_latency_s,
                ActionKind.FREQUENCY_UNLOCK: self.config.oob_latency_s,
                ActionKind.POWER_CAP: self.config.oob_latency_s,
                ActionKind.POWER_UNCAP: self.config.oob_latency_s,
                ActionKind.POWER_BRAKE: self.config.brake_latency_s,
                ActionKind.BRAKE_RELEASE: self.config.brake_latency_s,
            },
            silent_failure_rate=plan.actuation.silent_failure_rate,
            seed=plan.seed + 1,
        )

    # ------------------------------------------------------------------
    def start(
        self,
        requests: Sequence[SampledRequest],
        duration_s: float,
    ) -> SimulationCore:
        """Reset the policy and build a ready-to-run simulation core.

        Raises:
            ConfigurationError: If the duration is not positive.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        self.policy.reset()
        return SimulationCore(self, requests, duration_s)

    def run(
        self,
        requests: Sequence[SampledRequest],
        duration_s: float,
    ) -> SimulationResult:
        """Simulate ``duration_s`` seconds of the request trace.

        Requests arriving after ``duration_s`` are ignored; requests in
        flight at the end are allowed to finish (their latencies count).

        Raises:
            ConfigurationError: If the duration is not positive.
        """
        core = self.start(requests, duration_s)
        core.run_all()
        return core.finalize()
