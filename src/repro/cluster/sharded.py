"""Sharded execution of one large cluster simulation.

One row of servers is partitioned round-robin across ``n_shards``
serve-only shards. Each shard is a *full-configuration*
:class:`~repro.cluster.core.SimulationCore` whose non-owned servers are
marked failed before start — they draw zero power, the load balancer
never routes to them, and cap/brake landings leave them at zero — so
the shard simulates exactly its slice of the row while keeping global
server indexing, priority pools, and RNG seeding identical to a serial
run.

A single control-plane *parent* core (built over an empty request
trace) runs the real policy, brake state machine, and telemetry-health
logic over the **merged** row power. The driver synchronizes at every
telemetry tick:

1. each shard pauses at its tick (:meth:`~repro.cluster.core
   .SimulationCore.run_shard` yields ``(now, row_power, free_slots)``);
2. the parent processes the same tick with its ``row_power`` swapped to
   the shard sum, so the policy observes exactly what a serial
   controller would; command pushes land in the parent's ``outbox``;
3. the driver assigns the next epoch's arrivals greedily to the shard
   with the most free slots in the request's priority pool, then
   resumes every shard with the broadcast (command landings, arrival
   ownership, cancelled brake versions).

Commands land strictly after the tick that issued them (actuation
latencies are positive), so a broadcast at the issuing tick always
reaches every shard before the landing time — the merged trajectory
is *epoch-synchronized*, not approximate.

With ``n_shards=1`` the decomposition is exact: the sole shard owns
every server and every arrival, the merged power is the shard's own
row power (``0.0 + x == x``), and the result is bit-identical to
:meth:`ClusterSimulator.run` — the parity tests assert this on the
fault-free reference configurations. With ``n_shards > 1`` the
partitioned cluster is a *different* (deterministic) system — routing
is per-shard — so parity holds between the parallel and in-process
drivers rather than against the serial simulator.

Sharding requires the fault-free elisions (no telemetry/actuation
faults, no churn, no protection hierarchy): anything that couples the
serve path to a global RNG stream or to breaker state would break the
decomposition, so :class:`ShardedSimulator` rejects such
configurations outright.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.metrics import PriorityMetrics, SimulationResult
from repro.cluster.policy_base import PowerPolicy
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy
from repro.errors import ConfigurationError
from repro.obs.collect import (
    PARENT_SHARD,
    SuppressKindsRecorder,
    merge_segments,
    shard_suppressed_kinds,
)
from repro.obs.metrics import aggregate_snapshots
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    TraceEvent,
    TraceRecorder,
    read_jsonl,
)
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import Priority

__all__ = ["ShardedSimulator"]


def _fork_available() -> bool:
    # Duplicated from repro.exec.engine to keep repro.cluster free of
    # repro.exec imports (exec already imports the cluster package).
    return "fork" in multiprocessing.get_all_start_methods()


def _owned_indices(n_servers: int, shard: int, n_shards: int) -> List[int]:
    """Round-robin server ownership: shard ``s`` owns ``i % n == s``.

    Round-robin (rather than contiguous blocks) keeps every shard's
    low/high priority pool split close to the configured fraction, so
    no shard ends up unable to serve one priority class.
    """
    return [i for i in range(n_servers) if i % n_shards == shard]


def _shard_spool(shard: int, segment_path: Optional[str] = None):
    """The spool recorder for one shard's segment.

    In-process shards spool to memory; forked shards spool to a local
    JSONL segment the parent reads back. Either way the spool drops
    the kinds another segment owns (:func:`shard_suppressed_kinds`),
    so the merged stream carries exactly one copy of each event.
    """
    sink: TraceRecorder = MemoryRecorder() if segment_path is None \
        else JsonlRecorder(segment_path)
    return SuppressKindsRecorder(sink, shard_suppressed_kinds(shard))


def _build_shard_core(
    config: ClusterConfig,
    requests: Sequence[SampledRequest],
    duration_s: float,
    shard: int,
    n_shards: int,
    recorder: Optional[TraceRecorder] = None,
) -> Any:
    """One serve-only shard core with non-owned servers pre-failed."""
    simulator = ClusterSimulator(config, NoCapPolicy(), recorder=recorder)
    owned = set(_owned_indices(config.n_servers, shard, n_shards))
    for index, server in enumerate(simulator.servers):
        if index not in owned:
            # Failed before start: every power refresh (cap and brake
            # landings included) holds it at 0.0, the balancer skips
            # it, and _free_slots never counts it.
            server.failed = True
    return simulator.start(requests, duration_s, shard_serving=True)


def _shard_worker(conn, config, requests, duration_s, shard, n_shards,
                  segment_path=None):
    """Worker-process loop speaking the shard pipe protocol.

    Sends the initial free-slot report, receives the time-zero arrival
    grant, then alternates tick yields against driver replies until the
    shard's event queue drains; the final message is the shard's
    finalized result. When recording, the shard spools its events to a
    worker-local JSONL segment (line order is the segment's ``seq``)
    that the parent merges after the run.
    """
    recorder = None if segment_path is None \
        else _shard_spool(shard, segment_path)
    core = _build_shard_core(
        config, requests, duration_s, shard, n_shards, recorder=recorder
    )
    conn.send(core._free_slots())
    core.owned_arrivals.update(conn.recv())
    generator = core.run_shard()
    try:
        item = next(generator)
        while True:
            conn.send(item)
            item = generator.send(conn.recv())
    except StopIteration:
        pass
    # finalize() drives the recorder's own finalize hook, so the spool
    # closes only after the result is complete.
    result = core.finalize()
    if recorder is not None:
        recorder.close()
    conn.send(result)
    conn.close()


class _LocalShard:
    """In-process shard backend (also the no-fork fallback)."""

    def __init__(self, config, requests, duration_s, shard, n_shards,
                 recording=False):
        self.spool = _shard_spool(shard) if recording else None
        self.core = _build_shard_core(
            config, requests, duration_s, shard, n_shards,
            recorder=self.spool,
        )
        self.generator = self.core.run_shard()

    def initial_free(self) -> Dict[str, int]:
        return self.core._free_slots()

    def prime(self, initial_owned: Sequence[int]):
        self.core.owned_arrivals.update(initial_owned)
        try:
            return next(self.generator)
        except StopIteration:  # pragma: no cover - duration > 0 ticks
            return None

    def tick_reply(self, reply: Dict[str, Any]):
        try:
            return self.generator.send(reply)
        except StopIteration:
            return None

    def finalize(self) -> SimulationResult:
        return self.core.finalize()

    def trace_events(self) -> List[TraceEvent]:
        assert self.spool is not None
        return self.spool.inner.events


class _PipeShard:
    """Forked worker-process shard backend (bit-identical to local:
    the worker runs the same ``run_shard`` loop on the same inputs)."""

    def __init__(self, config, requests, duration_s, shard, n_shards,
                 segment_path=None):
        self.segment_path = segment_path
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker,
            args=(child, config, requests, duration_s, shard, n_shards,
                  segment_path),
        )
        self.process.start()
        child.close()
        self._result: Optional[SimulationResult] = None

    def initial_free(self) -> Dict[str, int]:
        return self.conn.recv()

    def prime(self, initial_owned: Sequence[int]):
        self.conn.send(list(initial_owned))
        return self.conn.recv()

    def tick_reply(self, reply: Dict[str, Any]):
        self.conn.send(reply)
        item = self.conn.recv()
        if isinstance(item, SimulationResult):
            self._result = item
            return None
        return item

    def finalize(self) -> SimulationResult:
        if self._result is None:  # pragma: no cover - defensive
            self._result = self.conn.recv()
        self.conn.close()
        self.process.join()
        return self._result

    def trace_events(self) -> List[TraceEvent]:
        # Valid only after finalize(): the worker closes its spool
        # before sending the result, so the segment is complete.
        assert self.segment_path is not None
        return read_jsonl(self.segment_path)


class ShardedSimulator:
    """Epoch-synchronized sharded run of one cluster configuration.

    Args:
        config: The cluster configuration. Must be fault-free: no
            non-trivial ``fault_plan`` and no ``protection`` hierarchy.
        policy: The power-management policy (runs in the parent
            control plane only).
        n_shards: Number of serve-only shards the row is partitioned
            into. ``1`` is bit-identical to ``ClusterSimulator.run``.
        parallel: Fan shards out to forked worker processes. Falls
            back to in-process shards (same results) when ``fork`` is
            unavailable or ``n_shards == 1``.
        recorder: Optional trace sink. Each shard (and the
            control-plane parent) spools events locally — forked
            shards to worker-local JSONL segments — and the parent
            merges the segments deterministically
            (:func:`repro.obs.collect.merge_segments`) into this
            recorder after the run. With ``n_shards == 1`` the merged
            trace is byte-identical to a serial
            ``ClusterSimulator.run`` recording; recording never
            perturbs results. The default stays
            :data:`~repro.obs.recorder.NULL_RECORDER`.
        spool_dir: Directory for forked shards' JSONL segments (a
            temporary directory, removed after the merge, when not
            given). Only used when recording with the pipe backend.

    Raises:
        ConfigurationError: On a faulty/protected configuration or an
            invalid shard count.
    """

    def __init__(
        self,
        config: ClusterConfig,
        policy: PowerPolicy,
        n_shards: int = 1,
        parallel: bool = False,
        recorder: Optional[TraceRecorder] = None,
        spool_dir: Optional[str] = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError("n_shards must be at least 1")
        if n_shards > config.n_servers:
            raise ConfigurationError(
                f"n_shards ({n_shards}) exceeds the server count "
                f"({config.n_servers})"
            )
        plan = config.fault_plan
        if plan is not None and not plan.is_trivial:
            raise ConfigurationError(
                "sharded execution requires a fault-free configuration "
                "(fault injection couples shards through global "
                "RNG/telemetry state)"
            )
        if config.protection is not None:
            raise ConfigurationError(
                "sharded execution does not support a protection "
                "hierarchy (breaker state is global)"
            )
        self.config = config
        self.policy = policy
        self.n_shards = n_shards
        self.parallel = parallel
        self.recorder = NULL_RECORDER if recorder is None else recorder
        self.spool_dir = spool_dir

    # ------------------------------------------------------------------
    def _use_pipe(self) -> bool:
        return self.parallel and self.n_shards > 1 and _fork_available()

    def _backends(self, requests, duration_s, spool_dir=None) -> List[Any]:
        recording = self.recorder.enabled
        if self._use_pipe():
            return [
                _PipeShard(
                    self.config, requests, duration_s, s, self.n_shards,
                    segment_path=(
                        os.path.join(spool_dir, f"shard-{s}.jsonl")
                        if recording else None
                    ),
                )
                for s in range(self.n_shards)
            ]
        return [
            _LocalShard(self.config, requests, duration_s, s,
                        self.n_shards, recording=recording)
            for s in range(self.n_shards)
        ]

    @staticmethod
    def _pick_shard(frees: List[Dict[str, int]], priority: Priority) -> int:
        """Shard with the most free slots in the priority's pool
        (ties to the lowest index; all-zero still assigns — the shard's
        own balancer buffers or drops exactly as a serial row would)."""
        key = priority.value
        best = 0
        best_free = frees[0].get(key, 0)
        for shard in range(1, len(frees)):
            free = frees[shard].get(key, 0)
            if free > best_free:
                best, best_free = shard, free
        return best

    def run(
        self, requests: Sequence[SampledRequest], duration_s: float
    ) -> SimulationResult:
        """Simulate ``duration_s`` seconds of the trace, sharded.

        Raises:
            ConfigurationError: If the duration is not positive.
        """
        config = self.config
        interval = config.telemetry_interval_s
        recording = self.recorder.enabled
        parent_spool = None
        if recording:
            # The parent's own landings are duplicates of the shards'
            # (and sit at the wrong position relative to the shards'
            # rescales), so its spool drops them at the source.
            parent_spool = _shard_spool(PARENT_SHARD)
        parent_sim = ClusterSimulator(
            config, self.policy, recorder=parent_spool
        )
        parent = parent_sim.start([], duration_s)
        parent.outbox = []
        parent.outbox_cancels = []
        spool_tmp = None
        spool_dir = self.spool_dir
        if recording and self._use_pipe() and spool_dir is None:
            spool_tmp = tempfile.TemporaryDirectory(
                prefix="repro-shard-trace-"
            )
            spool_dir = spool_tmp.name
        try:
            return self._drive(
                parent, requests, duration_s, interval, spool_dir,
                parent_spool,
            )
        finally:
            if spool_tmp is not None:
                spool_tmp.cleanup()

    def _drive(
        self,
        parent: Any,
        requests: Sequence[SampledRequest],
        duration_s: float,
        interval: float,
        spool_dir: Optional[str],
        parent_spool: Optional[SuppressKindsRecorder],
    ) -> SimulationResult:
        backends = self._backends(requests, duration_s, spool_dir)

        # Arrival assignment order: by arrival time, ties by trace
        # index (the event queue's own tie-break for the init pushes).
        order = sorted(
            (i for i, r in enumerate(requests)
             if r.arrival_time < duration_s),
            key=lambda i: (requests[i].arrival_time, i),
        )
        cursor = 0

        # Arrivals at t == 0.0 pop before the first tick (init pushes
        # precede the tick schedule), so their ownership must be
        # granted before the shards start.
        frees = [backend.initial_free() for backend in backends]
        initial_owned: List[List[int]] = [[] for _ in backends]
        while cursor < len(order) \
                and requests[order[cursor]].arrival_time <= 0.0:
            index = order[cursor]
            shard = self._pick_shard(frees, requests[index].priority)
            initial_owned[shard].append(index)
            frees[shard][requests[index].priority.value] -= 1
            cursor += 1
        items = [
            backend.prime(initial_owned[i])
            for i, backend in enumerate(backends)
        ]

        ticks_remaining = len(parent.power_samples)
        queue = parent.queue
        while queue:
            now, event = queue.pop()
            if event[0] != "tick":
                # Command landings on the parent's own state machine;
                # fault-free, these push nothing new.
                parent._process(now, event)
                continue
            ticks_remaining -= 1
            merged = 0.0
            for item in items:
                assert item is not None and item[1] == now, (
                    "shard desynchronized from the parent tick schedule"
                )
                merged += item[2]
            # The parent's own row power (idle servers) is integrated
            # and discarded — its energy and breaker exposure are
            # recomputed from the shards in the merge. The swap makes
            # the tick's sample, telemetry read, and control step see
            # the merged row exactly as a serial controller would; the
            # inner _integrate is a dt == 0 no-op.
            parent._integrate(now)
            saved = parent.row_power
            parent.row_power = merged
            parent._process(now, ("tick",))
            parent.row_power = saved

            # Grant the next epoch's arrivals: everything in
            # (now, now + interval] — an arrival exactly at a tick time
            # pops before that tick, so it must already be owned. The
            # last tick takes the remainder (< duration_s by
            # construction of the tick schedule).
            frees = [dict(item[3]) for item in items]
            horizon = float("inf") if ticks_remaining == 0 \
                else now + interval
            grants: List[List[int]] = [[] for _ in backends]
            while cursor < len(order) \
                    and requests[order[cursor]].arrival_time <= horizon:
                index = order[cursor]
                shard = self._pick_shard(frees, requests[index].priority)
                grants[shard].append(index)
                frees[shard][requests[index].priority.value] -= 1
                cursor += 1

            push = tuple(parent.outbox)
            cancel = tuple(parent.outbox_cancels)
            parent.outbox.clear()
            parent.outbox_cancels.clear()
            for i, backend in enumerate(backends):
                items[i] = backend.tick_reply(
                    {"push": push, "own": grants[i], "cancel": cancel}
                )

        shard_results = [backend.finalize() for backend in backends]
        parent_result = parent.finalize()
        if parent_spool is not None:
            segments: Dict[int, List[TraceEvent]] = {
                PARENT_SHARD: parent_spool.inner.events
            }
            for shard, backend in enumerate(backends):
                segments[shard] = backend.trace_events()
            for event in merge_segments(segments):
                self.recorder.emit(event)
            self.recorder.finalize(duration_s)
        return self._merge(parent_result, shard_results, duration_s)

    # ------------------------------------------------------------------
    def _merge_observability(
        self,
        parent_result: SimulationResult,
        shard_results: List[SimulationResult],
        total_energy_j: float,
        peak_row_w: float,
    ) -> Optional[Dict[str, Any]]:
        """One observability snapshot for the whole sharded run.

        Counters add across planes — request counters live only in the
        shards, control/brake/command counters only in the parent, and
        every recording core pre-registers the full set at zero, so
        the sums are exact. The double-counted tick counter and the
        per-plane energy/peak gauges are overwritten with the merged
        truth, and any snapshot the caller's recorder itself exposes
        (e.g. a sampling census) merges in non-destructively — the
        same contract as ``SimulationCore.finalize``.
        """
        snapshots = [parent_result.observability] \
            + [result.observability for result in shard_results]
        observability = aggregate_snapshots(
            [snap for snap in snapshots if snap]
        )
        counters = observability.setdefault("counters", {})
        parent_counters = (parent_result.observability or {}) \
            .get("counters", {})
        counters["telemetry.ticks"] = \
            parent_counters.get("telemetry.ticks", 0)
        gauges = observability.setdefault("gauges", {})
        gauges["energy.total_j"] = total_energy_j
        gauges["power.peak_row_w"] = peak_row_w
        extra = self.recorder.observability_snapshot()
        if extra:
            for key, value in extra.items():
                if key not in observability:
                    observability[key] = value
        return observability

    # ------------------------------------------------------------------
    def _merge(
        self,
        parent_result: SimulationResult,
        shard_results: List[SimulationResult],
        duration_s: float,
    ) -> SimulationResult:
        config = self.config
        report = parent_result.robustness
        if len(shard_results) == 1:
            # Exact: the sole shard integrated the true row power at
            # full event granularity, and the parent's control-plane
            # counters saw the identical trajectory.
            sole = shard_results[0]
            report.time_at_risk_s = sole.robustness.time_at_risk_s
            report.longest_overbudget_s = \
                sole.robustness.longest_overbudget_s
            per_priority = sole.per_priority
            per_workload = sole.per_workload
            total_energy = sole.total_energy_j
        else:
            per_priority = {}
            for priority in Priority:
                merged_tier = PriorityMetrics()
                for result in shard_results:
                    tier = result.per_priority[priority]
                    merged_tier.latencies.extend(tier.latencies)
                    merged_tier.served += tier.served
                    merged_tier.dropped += tier.dropped
                per_priority[priority] = merged_tier
            per_workload: Dict[str, PriorityMetrics] = {}
            for result in shard_results:
                for name, tier in result.per_workload.items():
                    merged_tier = per_workload.setdefault(
                        name, PriorityMetrics()
                    )
                    merged_tier.latencies.extend(tier.latencies)
                    merged_tier.served += tier.served
                    merged_tier.dropped += tier.dropped
            total_energy = 0.0
            for result in shard_results:
                total_energy += result.total_energy_j
            # Breaker exposure at telemetry-tick granularity (the
            # merged row is only known at the synchronization points).
            budget = config.provisioned_power_w
            interval = config.telemetry_interval_s
            at_risk = 0.0
            longest = 0.0
            run_length = 0.0
            values = parent_result.power_series.values
            for i, value in enumerate(values):
                dt = min(interval, duration_s - i * interval)
                if dt <= 0.0:
                    break
                if value > budget:
                    run_length += dt
                    at_risk += dt
                else:
                    longest = max(longest, run_length)
                    run_length = 0.0
            report.time_at_risk_s = at_risk
            report.longest_overbudget_s = max(longest, run_length)
        observability = None
        if self.recorder.enabled:
            values = parent_result.power_series.values
            observability = self._merge_observability(
                parent_result, shard_results, total_energy,
                max(values) if len(values) else 0.0,
            )
        return SimulationResult(
            per_priority=per_priority,
            power_series=parent_result.power_series,
            provisioned_power_w=config.provisioned_power_w,
            power_brake_events=parent_result.power_brake_events,
            capping_actions=parent_result.capping_actions,
            duration_s=duration_s,
            per_workload=per_workload,
            total_energy_j=total_energy,
            robustness=report,
            observability=observability,
        )
