"""The simulation core behind :class:`ClusterSimulator`.

:class:`SimulationCore` owns every piece of mutable state of one run —
what used to live in the locals and closures of ``ClusterSimulator.run``
— without changing a single simulated outcome (the golden-parity suite
pins bit-identity to the pre-refactor simulator). That buys
checkpointing: :meth:`SimulationCore.checkpoint` encodes a mid-flight
run into a blob and :meth:`SimulationCore.restore` rebuilds it from the
blob, the run's request trace and the policy to resume under, so
:mod:`repro.exec.incremental` can resume it under a different
controller. A blob carries only what changes during a run: requests
are trace indices, the pre-sorted arrival/tick stream is a count of the
entries left (rebuilt by :func:`known_events`, the builder
``__init__`` uses), the policy, recorder and metrics registry stay
out, and restored servers are rebuilt on the canonical model and GPU
spec objects, so the process-wide timeline memo keeps hitting.

Per-server state has one home, the :class:`~repro.cluster.server_sim
.ServerSim` objects; the core adds only the running per-server power
list that the row power and the exact energy integral sum in index
order. Each event kind has one handler method, and the event loop
dispatches through the module-level :data:`EVENT_HANDLERS` table.
Per-event-kind kernel timing (:class:`KernelTimers`) is opt-in and
surfaces in ``result.observability["sim_core"]`` so hot-path regressions
show up in traces.

The horizon rule: a telemetry reading that becomes available after
``duration_s`` never reaches the policy, so no control step runs after
the horizon. Everything already under way finishes: commands issued
before the horizon still land (and are verified and re-issued), and
in-flight requests drain, their latencies counted. Energy and breaker
exposure integrate over ``[0, duration_s]`` only.
"""

from __future__ import annotations

import io
import math
import pickle
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.timeseries import TimeSeries
from repro.cluster.events import Entry, EventQueue
from repro.cluster.metrics import (
    PRIORITIES,
    ServeLogBuilder,
    SimulationResult,
)
from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.cluster.server_sim import ServerSim
from repro.control.actions import ActionKind, ControlAction
from repro.errors import ModelNotFoundError, SimulationError
from repro.faults.injector import FaultInjector, TelemetryFate
from repro.faults.plan import FaultPlan
from repro.faults.report import OverBudgetTracker, RobustnessReport
from repro.gpu.specs import A100_80GB, GpuSpec, gpu_spec
from repro.models.registry import LlmSpec, get_model
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.recorder import NULL_RECORDER
from repro.powerfail.protection import ProtectionRuntime
from repro.powerfail.topology import PowerTopology
from repro.telemetry.base import SampledInterface
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import Priority


class KernelTimers:
    """Per-event-kind call/latency counters for the event loop.

    Opt-in: with timers, :meth:`SimulationCore.run_all` runs the same
    loop over :meth:`timed` dispatch, which times each event's energy
    integration plus its handler. Disabled runs pay nothing (not even a
    clock read per event).
    """

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, List[float]] = {}

    def add(self, kind: str, seconds: float) -> None:
        cell = self.counters.get(kind)
        if cell is None:
            self.counters[kind] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def timed(
        self, process: Callable[[float, Tuple], None]
    ) -> Callable[[float, Tuple], None]:
        """``process(now, event)``, counted under the event's kind."""
        add = self.add

        def timed_process(now: float, event: Tuple) -> None:
            t0 = perf_counter()
            process(now, event)
            add(event[0], perf_counter() - t0)

        return timed_process

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{kind: {"calls": n, "seconds": s}}``, sorted by cost."""
        return {
            kind: {"calls": int(calls), "seconds": seconds}
            for kind, (calls, seconds) in sorted(
                self.counters.items(), key=lambda kv: -kv[1][1]
            )
        }


def known_events(
    requests: Sequence[SampledRequest],
    duration_s: float,
    interval: float,
    sequence: int,
) -> Tuple[List[Entry], int]:
    """The arrivals and ticks of a run, as pre-sorted-queue entries.

    Returns ``(entries, n_ticks)``: one ``(time, sequence, payload)``
    entry per request arriving before ``duration_s`` (trace order) and
    then per telemetry tick, numbered consecutively from ``sequence``
    — the order they would otherwise have been pushed — and the tick
    count. A fresh core adopts the entries; a restored one rebuilds the
    identical list and keeps only the entries not yet consumed.
    """
    known: List[Entry] = []
    append = known.append
    for request in requests:
        arrival = request.arrival_time
        if arrival < duration_s:
            append((arrival, sequence, ("arrival", request)))
            sequence += 1
    # Integer-indexed tick schedule: i * interval carries no
    # accumulated float error on long traces (unlike a +=-style or
    # np.arange cursor).
    n_ticks = 0
    for i in range(int(math.ceil(duration_s / interval))):
        tick = i * interval
        if tick >= duration_s:
            break
        append((tick, sequence, ("tick",)))
        sequence += 1
        n_ticks += 1
    return known, n_ticks


#: Core attributes a checkpoint leaves out; :meth:`SimulationCore.restore`
#: sets each of them afresh.
_NOT_CHECKPOINTED = frozenset({
    "requests", "policy", "recorder", "recording", "_rec_phase_start",
    "_rec_control", "_rec_req_arrival", "_rec_serve", "obs", "util_hist",
    "latency_hists", "request_ids", "_ctr_served", "_ctr_dropped",
    "_wl_hists",
})


def _trace_request(index: int) -> SampledRequest:
    """What a checkpoint names for a request of the run's trace.

    Never called: :class:`_CheckpointUnpickler` resolves the name to
    the restoring trace's ``__getitem__``.
    """
    raise SimulationError(
        "checkpoint blobs load through SimulationCore.restore"
    )


def _is_registered(lookup: Callable[[str], Any], obj: Any) -> bool:
    """Whether ``obj`` is the registry's own instance for its name."""
    try:
        return lookup(obj.name) is obj
    except ModelNotFoundError:
        return False


class _CheckpointPickler(pickle.Pickler):
    """Pickles core state by reference to what a restore already has.

    Trace requests become indices into the trace; registry models and
    GPU specs become their registry lookups; servers become their
    constructor arguments plus the fields a run changes. Python calls
    ``reducer_override`` for class instances only — never for the
    floats, ints, lists and dicts that make up most of the state — so
    the hook is cheap.
    """

    def __init__(self, file: io.BytesIO, request_ids: Dict[int, int]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.request_ids = request_ids

    def reducer_override(self, obj: Any) -> Any:
        cls = type(obj)
        if cls is SampledRequest:
            index = self.request_ids.get(id(obj))
            if index is not None:
                return _trace_request, (index,)
        elif cls is ServerSim:
            # Re-created through the constructor, which derives the GPU
            # spec, power profile and token-activity table exactly as
            # the original run did; only the slots are set afterwards.
            return ServerSim, (
                obj.server_id, obj.priority, obj.model, obj.power_model,
                obj.concurrency, obj.clock_ratio, obj.braked, obj.failed,
                obj.buffered,
            ), (None, {"slots": obj.slots, "_next_slot": obj._next_slot})
        elif cls is LlmSpec:
            if _is_registered(get_model, obj):
                return get_model, (obj.name,)
        elif cls is GpuSpec:
            if _is_registered(gpu_spec, obj):
                return gpu_spec, (obj.name,)
        return NotImplemented


class _CheckpointUnpickler(pickle.Unpickler):
    """Loads a checkpoint, resolving request indices against a trace."""

    def __init__(
        self, file: io.BytesIO, requests: Sequence[SampledRequest]
    ) -> None:
        super().__init__(file)
        self.requests = requests

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_trace_request":
            return self.requests.__getitem__
        return super().find_class(module, name)


class SimulationCore:
    """All mutable state and event handlers of one simulation run.

    Built by :meth:`ClusterSimulator.start`; callers normally just
    ``run_all()`` then ``finalize()``. The attribute layout is the
    former ``run()`` local-variable set, verbatim — see the module
    docstring for why it is an object now.
    """

    def __init__(
        self,
        simulator: Any,
        requests: Sequence[SampledRequest],
        duration_s: float,
    ) -> None:
        config = simulator.config
        self.config = config
        self.policy = simulator.policy
        self.power_model = simulator.power_model
        self.servers = simulator.servers
        self._index_by_priority = simulator._index_by_priority
        self._ids_by_priority = simulator._ids_by_priority
        self._all_ids = simulator._all_ids
        self.balancer = simulator.balancer
        self.requests = requests
        self.duration_s = duration_s
        self.timers: Optional[KernelTimers] = (
            KernelTimers() if simulator.kernel_timers else None
        )

        reliability = config.reliability
        self.reliability = reliability
        plan = config.fault_plan if config.fault_plan is not None \
            else FaultPlan.none()
        self.injector = FaultInjector(
            plan, duration_s=duration_s, n_servers=config.n_servers
        )
        self.interface = SampledInterface(
            name="row-telemetry",
            interval=config.telemetry_interval_s,
            in_band=False,
            delay=plan.telemetry.delay_s,
            noise_std=plan.telemetry.noise_std,
            seed=plan.seed,
        )
        self.actuator = simulator._build_actuator(plan)
        # With a perfect actuation path every command provably lands by
        # its spec latency, so the verify deadline would always pass:
        # elide it. This also keeps the event stream — and hence the
        # float summation order of the exact energy integral —
        # bit-identical to the original fault-free simulator.
        self.verify_commands = (
            plan.actuation.silent_failure_rate > 0.0
            or plan.actuation.delay_prob > 0.0
        )
        self.report = RobustnessReport(
            duration_s=duration_s,
            telemetry_dropout_windows=self.injector.dropout_window_count,
        )
        self.tracker = OverBudgetTracker(budget_w=config.provisioned_power_w)
        self.protection = config.protection
        self.peak_server_w = self.power_model.server_power(1.0, 1.0)

        # Observability. ``recording`` guards every hook point, so with
        # the default NullRecorder no event payload or metric update
        # ever happens and the run is bit-identical to an
        # uninstrumented one. Recorders observe only: they never touch
        # simulator state, RNG streams, or the float summation order.
        recorder = simulator.recorder
        self.recorder = recorder
        recording = recorder.enabled
        self.recording = recording
        self._set_kind_gates()
        self.obs: Optional[MetricsRegistry] = None
        self.util_hist = None
        self.latency_hists: Optional[Dict[Priority, Any]] = None
        self.request_ids: Dict[int, int] = {}
        # Per-tick utilization observations, batched into the
        # control.utilization histogram at finalize (appending a float
        # is far cheaper than a per-tick histogram update). Carried
        # through checkpoints so a resumed run finalizes the full list.
        self._util_samples: List[float] = []
        self._ctr_served = None
        self._ctr_dropped = None
        self._wl_hists: Dict[str, Any] = {}
        if recording:
            obs = MetricsRegistry()
            self.obs = obs
            # Pre-register the counters cross_check compares so they
            # are present in the snapshot even when they end at zero.
            for _name in (
                "requests.served",
                "requests.dropped",
                "requests.lost_to_churn",
                "brake.engagements",
                "commands.cap_actions",
                "commands.issued",
                "commands.reissues",
                "fallback.entries",
                "telemetry.faults",
                "churn.failures",
                "churn.recoveries",
            ):
                obs.counter(_name)
            if self.protection is not None:
                for _name in (
                    "prot.trips",
                    "prot.reenergizations",
                    "shed.engagements",
                    "requests.lost_to_trips",
                    "requests.dropped_shed",
                    "requests.deferred",
                ):
                    obs.counter(_name)
            self._cache_metric_handles()
            recorder.emit({
                "t": 0.0, "kind": "run_meta",
                "duration_s": duration_s,
                "n_servers": config.n_servers,
                "concurrency": self.servers[0].concurrency,
                "provisioned_power_w": config.provisioned_power_w,
                "idle_server_power_w":
                    self.power_model.server_power(0.0, 1.0),
                "brake_ratio": self.power_model.brake_ratio,
                "servers": {
                    s.server_id: s.priority.value for s in self.servers
                },
            })

        self.queue = EventQueue()
        self.serves = ServeLogBuilder()

        # Running row power; server powers are piecewise constant, which
        # also makes the energy integral exact: accumulate power x dt at
        # every event boundary. ``server_power`` is a Python float list
        # updated per index, which fixes the float summation order.
        self.server_power = [s.current_power() for s in self.servers]
        self.row_power = sum(self.server_power)
        self.total_energy = 0.0
        self.last_event_time = 0.0

        # The power-delivery protection layer. ``prot is None`` (the
        # default) models infinite breaker capacity: no accumulator is
        # ever touched, no event is ever enqueued, and the run is
        # bit-identical to the unprotected simulator.
        self.prot: Optional[ProtectionRuntime] = None
        self.emergency = None
        self.pf_report = None
        self.shed_active = False
        self.shed_since = 0.0
        self.defer_counts: Dict[int, int] = {}
        if self.protection is not None:
            topology = PowerTopology.build(
                n_servers=config.n_servers,
                provisioned_power_w=config.provisioned_power_w,
                peak_server_w=self.peak_server_w,
                spec=self.protection,
            )
            self.prot = ProtectionRuntime(
                topology, self.protection, duration_s, self.server_power
            )
            self.emergency = self.protection.emergency
            self.pf_report = self.prot.report
            for push in self.prot.initial_events():
                self.queue.push(*push)

        # Actuation bookkeeping. Cap commands are generation-stamped per
        # priority group and brake commands version-stamped, so verify
        # and re-issue events can tell whether they have been superseded
        # — and so a utilization spike during a pending brake release
        # can cancel the release outright.
        self.commanded = GroupCaps.uncapped()
        self.cap_generation: Dict[Priority, int] = {p: 0 for p in Priority}
        self.capping_actions = 0
        self.brake_state = "off"  # off | pending_on | on | pending_off
        self.brake_version = 0
        self.brake_engaged_at = -float("inf")
        self.brake_events = 0

        # Telemetry-health state for graceful degradation.
        self.stale_ticks = 0
        self.identical_run = 0
        self.last_observed: Optional[float] = None
        self.in_fallback = False
        self.fallback_entered_at = 0.0

        self.server_index = {
            s.server_id: i for i, s in enumerate(self.servers)
        }
        self.clock_denominator = A100_80GB.max_sm_clock_mhz

        # Arrivals and ticks are known up front: they go to the queue's
        # pre-sorted list, numbered in the order they would have been
        # pushed, so time ties break exactly as on a single heap.
        self.known_sequence = self.queue.sequence
        known, scheduled_ticks = known_events(
            requests, duration_s, config.telemetry_interval_s,
            self.known_sequence,
        )
        self.queue.adopt(known)
        self.scheduled_ticks = scheduled_ticks
        # The tick count is known up front: accumulate power samples
        # into a preallocated array instead of growing a list.
        self.power_samples = np.empty(scheduled_ticks, dtype=np.float64)
        self.sample_cursor = 0
        for churn in self.injector.churn_events:
            self.queue.push(
                churn.fail_at_s, ("server_fail", churn.server_index)
            )
            if churn.recover_at_s is not None \
                    and churn.recover_at_s < duration_s:
                self.queue.push(
                    churn.recover_at_s,
                    ("server_recover", churn.server_index),
                )

    # ------------------------------------------------------------------
    # Recording hooks
    # ------------------------------------------------------------------
    def _cache_metric_handles(self) -> None:
        """Bind the histograms and per-request counters of ``obs`` once.

        The request lifecycle touches these on every arrival and
        completion; resolving them through the registry (a dotted-name
        dict lookup, and an f-string for the per-workload histograms)
        tens of thousands of times per run is measurable, so the hot
        sites go through these handles instead.
        """
        obs = self.obs
        self.util_hist = obs.histogram("control.utilization")
        self.latency_hists = {
            p: obs.histogram(f"latency.priority.{p.value}", LATENCY_BUCKETS)
            for p in Priority
        }
        self._ctr_served = obs.counter("requests.served")
        self._ctr_dropped = obs.counter("requests.dropped")
        self._wl_hists = {}
        # Requests are identified in the trace by arrival order;
        # SampledRequest is frozen and id-stable for the run.
        self.request_ids = {id(r): i for i, r in enumerate(self.requests)}

    def _workload_hist(self, name: str):
        """The (cached) latency histogram for one workload."""
        hist = self._wl_hists.get(name)
        if hist is None:
            hist = self._wl_hists[name] = self.obs.histogram(
                f"latency.workload.{name}", LATENCY_BUCKETS
            )
        return hist

    def _set_kind_gates(self) -> None:
        """Precompute per-kind recording gates for the high-rate kinds.

        The serve-plane kinds fire tens of thousands of times per run;
        when the attached recorder chain has no use for one of them
        (:meth:`~repro.obs.recorder.TraceRecorder.wants` is ``False``
        all the way down) the hook point skips payload construction
        entirely. Metric updates are unaffected — they stay gated on
        ``recording`` alone, so the observability snapshot is identical
        whatever the recorder filters.
        """
        recording = self.recording
        recorder = self.recorder
        self._rec_phase_start = recording and recorder.wants("phase_start")
        self._rec_control = recording and recorder.wants("control")
        self._rec_req_arrival = recording and recorder.wants("req_arrival")
        self._rec_serve = recording and recorder.wants("serve")

    # ------------------------------------------------------------------
    # The checkpoint codec
    # ------------------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Encode this mid-flight run for :meth:`restore`.

        The blob carries the state that changes during a run and
        nothing the restoring side already has: no policy (the resume
        supplies its own), no recorder or metrics registry (restored
        cores replay unrecorded), no request objects (trace indices
        instead), no pre-sorted arrival/tick stream (a count of the
        entries left), no unfilled tail of ``power_samples``, and no
        copies of the model or GPU spec (servers are re-created on the
        canonical ones).
        """
        if not self.request_ids:
            # The map recording builds anyway; checkpoints reuse it.
            self.request_ids = {id(r): i for i, r in enumerate(self.requests)}
        state = {
            name: value for name, value in self.__dict__.items()
            if name not in _NOT_CHECKPOINTED
        }
        state["queue"] = self.queue.checkpoint()
        state["power_samples"] = self.power_samples[:self.sample_cursor]
        state["defer_counts"] = {
            self.request_ids[key]: count
            for key, count in self.defer_counts.items()
        }
        buffer = io.BytesIO()
        _CheckpointPickler(buffer, self.request_ids).dump(state)
        return buffer.getvalue()

    @classmethod
    def restore(
        cls,
        blob: bytes,
        requests: Sequence[SampledRequest],
        policy: PowerPolicy,
    ) -> "SimulationCore":
        """Rebuild a core from a :meth:`checkpoint` blob.

        ``requests`` must be the trace the checkpointed run replayed
        (the blob refers to its requests by index); ``policy`` takes
        over control from the restored state on. The core resumes
        unrecorded.
        """
        state = _CheckpointUnpickler(io.BytesIO(blob), requests).load()
        core = cls.__new__(cls)
        core.__dict__.update(state)
        core.requests = requests
        core.policy = policy
        core.recorder = NULL_RECORDER
        core.recording = False
        core._set_kind_gates()
        core.obs = core.util_hist = core.latency_hists = None
        core._ctr_served = core._ctr_dropped = None
        core.request_ids = {}
        core._wl_hists = {}
        known, _ = known_events(
            requests, core.duration_s, core.config.telemetry_interval_s,
            core.known_sequence,
        )
        core.queue = EventQueue.restore(state["queue"], known)
        core.power_samples = np.empty(core.scheduled_ticks, dtype=np.float64)
        core.power_samples[:core.sample_cursor] = state["power_samples"]
        core.defer_counts = {
            id(requests[index]): count
            for index, count in state["defer_counts"].items()
        }
        return core

    # ------------------------------------------------------------------
    # Power refresh
    # ------------------------------------------------------------------
    def _refresh_power(self, now: float, index: int) -> None:
        new_power = self.servers[index].current_power()
        self.row_power += new_power - self.server_power[index]
        self.server_power[index] = new_power
        if self.prot is not None:
            for push in self.prot.update_server_power(now, index, new_power):
                self.queue.push(*push)

    # ------------------------------------------------------------------
    # Request lifecycle helpers
    # ------------------------------------------------------------------
    def _schedule_slot(self, index: int, slot: int) -> None:
        active = self.servers[index].slots.get(slot)
        if active is None:
            return
        self.queue.push(
            active.phase_end, ("phase", index, slot, active.version)
        )

    def _start_on(self, now: float, index: int, request: SampledRequest
                  ) -> None:
        slot = self.servers[index].start_request(now, request)
        self._refresh_power(now, index)
        self._schedule_slot(index, slot)
        if self._rec_phase_start:
            self._emit_phase_start(now, index, slot)

    # ------------------------------------------------------------------
    # Span lifecycle emission (observe-only; every call is guarded by
    # ``recording``, so unrecorded runs never reach these).
    # ------------------------------------------------------------------
    def _emit_phase_start(self, now: float, index: int, slot: int) -> None:
        server = self.servers[index]
        active = server.slots.get(slot)
        if active is None:
            return
        payload = server.slot_snapshot(slot)
        payload["t"] = now
        payload["kind"] = "phase_start"
        payload["request_id"] = self.request_ids[id(active.request)]
        self.recorder.emit(payload)

    def _emit_req_arrival(
        self,
        now: float,
        request: SampledRequest,
        server_id: Optional[str],
        queued: bool,
    ) -> None:
        self.recorder.emit({
            "t": now, "kind": "req_arrival",
            "request_id": self.request_ids[id(request)],
            "priority": request.priority.value,
            "workload": request.workload.name,
            "input_tokens": request.input_tokens,
            "output_tokens": request.output_tokens,
            "server": server_id, "queued": queued,
        })

    def _emit_rescales(
        self,
        now: float,
        index: int,
        rescheduled: Dict[int, float],
        old_ratio: float,
        cause: str,
        stamp: Dict[str, Any],
    ) -> None:
        server = self.servers[index]
        new_ratio = server.effective_ratio
        for slot, new_end in rescheduled.items():
            active = server.slots[slot]
            event = {
                "t": now, "kind": "phase_rescale",
                "request_id": self.request_ids[id(active.request)],
                "server": server.server_id, "slot": slot,
                "phase": active.segments[active.phase_index].phase,
                "old_ratio": old_ratio, "new_ratio": new_ratio,
                "new_end": new_end, "cause": cause,
            }
            event.update(stamp)
            self.recorder.emit(event)

    # ------------------------------------------------------------------
    # The reliable-command layer: every issue schedules a landing
    # (unless the interface silently drops it) plus a verify event;
    # failed verifies re-issue with capped exponential backoff.
    # ------------------------------------------------------------------
    def _issue_cap(
        self,
        now: float,
        priority: Priority,
        clock_mhz: Optional[float],
        generation: int,
        attempts: int,
    ) -> None:
        targets = self._ids_by_priority[priority]
        if clock_mhz is None:
            action = ControlAction.frequency_unlock(targets)
        else:
            action = ControlAction.frequency_lock(targets, clock_mhz)
        self._issue(
            now, action, ("cap", priority, clock_mhz, generation),
            ("verify_cap", priority, clock_mhz, generation, attempts),
            "cap", {
                "priority": priority.value, "clock_mhz": clock_mhz,
                "generation": generation, "attempts": attempts,
            },
        )

    def _issue_brake(
        self, now: float, want_on: bool, version: int, attempts: int
    ) -> None:
        kind = ActionKind.POWER_BRAKE if want_on \
            else ActionKind.BRAKE_RELEASE
        self._issue(
            now, ControlAction(kind, self._all_ids),
            ("brake_on" if want_on else "brake_off", version),
            ("verify_brake", want_on, version, attempts),
            "brake",
            {"want_on": want_on, "version": version, "attempts": attempts},
        )

    def _issue(
        self,
        now: float,
        action: ControlAction,
        landing: Tuple,
        verify: Tuple,
        trace: str,
        stamp: Dict[str, Any],
    ) -> None:
        """Issue one ``trace`` command (``"cap"`` or ``"brake"``).

        Schedules its ``landing`` (unless the interface silently drops
        it) and, when commands can fail, its ``verify`` deadline. A
        command with ``attempts > 0`` re-issues one whose verify failed,
        and is counted and traced as a re-issue first.
        """
        recording = self.recording
        if stamp["attempts"] > 0:
            self.report.reissues += 1
            if recording:
                self.obs.counter("commands.reissues").inc()
                self.recorder.emit(
                    {"t": now, "kind": f"{trace}_reissue", **stamp}
                )
        record = self.actuator.issue(now, action)
        self.report.commands_issued += 1
        extra = self.injector.actuation_extra_delay()
        if recording:
            self.obs.counter("commands.issued").inc()
            self.recorder.emit({
                "t": now, "kind": f"{trace}_issue", **stamp,
                "silent": record.failed_silently,
            })
        if record.failed_silently:
            self.report.silent_actuation_failures += 1
        else:
            self.queue.push(record.effective_at + extra, landing)
        if self.verify_commands:
            self.queue.push(
                now + self.actuator.latency_for(action.kind)
                + self.reliability.verify_margin_s,
                verify,
            )

    def _engage_brake(self, now: float, source: str = "policy") -> None:
        self.brake_state = "pending_on"
        self.brake_version += 1
        if self.recording:
            self.obs.counter("brake.engagements").inc()
            self.recorder.emit({
                "t": now, "kind": "brake_request",
                "source": source, "version": self.brake_version,
            })
        self._issue_brake(now, True, self.brake_version, 0)

    def _command_caps(self, now: float, desired: GroupCaps) -> None:
        commanded = self.commanded
        if desired is commanded:
            # Policies hand back the same prebuilt caps tick after tick;
            # equal but distinct caps still go through the comparison.
            return
        for priority, want, have in (
            (Priority.LOW, desired.low_clock_mhz, commanded.low_clock_mhz),
            (Priority.HIGH, desired.high_clock_mhz,
             commanded.high_clock_mhz),
        ):
            if want != have:
                self.cap_generation[priority] += 1
                self._issue_cap(
                    now, priority, want, self.cap_generation[priority], 0
                )
                self.capping_actions += 1
                if self.recording:
                    self.obs.counter("commands.cap_actions").inc()
        self.commanded = desired

    # ------------------------------------------------------------------
    # Emergency response to power-delivery incidents (only reachable
    # when a ProtectionSpec is attached): shed low-priority load and
    # clamp survivors to safe caps while any device is tripped or
    # carrying a trip-risk flag.
    # ------------------------------------------------------------------
    def _emit_capacity_status(self, now: float) -> None:
        offline_w, offline_frac = self.prot.offline_stats(self.peak_server_w)
        self.recorder.emit({
            "t": now, "kind": "capacity_status",
            "offline_capacity_w": offline_w,
            "offline_fraction": offline_frac,
        })

    def _update_shed(self, now: float) -> None:
        emergency = self.emergency
        if emergency is None or not emergency.enabled:
            return
        want = self.prot.in_emergency
        if want and not self.shed_active:
            self.shed_active = True
            self.shed_since = now
            self.pf_report.shed_engagements += 1
            if self.recording:
                self.obs.counter("shed.engagements").inc()
                self.recorder.emit({"t": now, "kind": "shed_engage"})
            self._command_caps(now, emergency.clamp(self.commanded))
        elif not want and self.shed_active:
            self.shed_active = False
            self.pf_report.time_shedding_s += max(
                0.0,
                min(now, self.duration_s) - min(self.shed_since,
                                                self.duration_s),
            )
            if self.recording:
                self.recorder.emit({"t": now, "kind": "shed_release"})

    # ------------------------------------------------------------------
    # The control plane: policy evaluation on each delivered telemetry
    # observation.
    # ------------------------------------------------------------------
    def _control_step(self, now: float, observed_power: float) -> None:
        utilization = observed_power / self.config.provisioned_power_w
        if self.recording:
            self._util_samples.append(utilization)
            if self._rec_control:
                self.recorder.emit({
                    "t": now, "kind": "control",
                    "utilization": utilization,
                    "observed_power_w": observed_power,
                    "brake_state": self.brake_state,
                })
        # --- Brake safety logic (all policies carry the brake).
        if self.brake_state in ("off", "pending_off") \
                and self.policy.wants_brake(utilization):
            if self.brake_state == "pending_off":
                # A spike while the release is in flight: cancel the
                # pending release (the stamped brake_off event is now
                # stale) — the brake never disengages, so this is not a
                # new engagement.
                self.brake_version += 1
                self.brake_state = "on"
                if self.recording:
                    self.recorder.emit({
                        "t": now, "kind": "brake_cancel_release",
                        "version": self.brake_version,
                    })
            else:
                self.brake_events += 1
                self._engage_brake(now)
        elif (
            self.brake_state == "on"
            and now - self.brake_engaged_at >= self.config.brake_hold_s
            and self.policy.brake_release_ok(utilization)
        ):
            self.brake_state = "pending_off"
            self.brake_version += 1
            if self.recording:
                self.recorder.emit({
                    "t": now, "kind": "brake_release_request",
                    "version": self.brake_version,
                })
            self._issue_brake(now, False, self.brake_version, 0)
        # --- Frequency-capping policy.
        desired = self.policy.desired_caps(utilization, now)
        if self.prot is not None and self.shed_active:
            # Safe-mode caps outrank the policy while shedding.
            desired = self.emergency.clamp(desired)
        self._command_caps(now, desired)

    def _deliver_observation(self, now: float, value: float) -> None:
        reliability = self.reliability
        if reliability.detect_frozen:
            if self.last_observed is not None and value == self.last_observed:
                self.identical_run += 1
            else:
                self.identical_run = 0
            self.last_observed = value
            if self.identical_run >= reliability.frozen_after_ticks:
                # A sensor repeating itself verbatim is as good as dark.
                self.stale_ticks += 1
                return
        else:
            self.identical_run = 0
            self.last_observed = value
        self.stale_ticks = 0
        if self.in_fallback:
            self.in_fallback = False
            if self.recording:
                self.recorder.emit({"t": now, "kind": "fallback_exit"})
        self._control_step(now, value)

    def _group_cap_applied(
        self, priority: Priority, clock_mhz: Optional[float]
    ) -> bool:
        ratio = 1.0 if clock_mhz is None \
            else clock_mhz / self.clock_denominator
        return all(
            math.isclose(self.servers[i].clock_ratio, ratio)
            for i in self._index_by_priority[priority]
        )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run_all(
        self,
        checkpoint_epoch_s: Optional[float] = None,
        checkpoint_cb: Optional[
            Callable[[float, "SimulationCore"], None]
        ] = None,
    ) -> None:
        """Process every event (arrivals, ticks, landings, the drain).

        With ``checkpoint_epoch_s``, ``checkpoint_cb(T, self)`` fires
        whenever the head of the queue first reaches an epoch boundary
        ``T = k * checkpoint_epoch_s`` — i.e. with every event strictly
        before ``T`` processed and none at or after it, which is exactly
        the state an incremental resume at ``T`` needs.
        """
        queue = self.queue
        process = self._process if self.timers is None \
            else self.timers.timed(self._process)
        next_cp = checkpoint_epoch_s
        while queue:
            if next_cp is not None:
                head = queue.peek_time()
                while next_cp is not None and head >= next_cp:
                    checkpoint_cb(next_cp, self)
                    next_cp += checkpoint_epoch_s
                    if next_cp > self.duration_s:
                        next_cp = None
            now, event = queue.pop()
            process(now, event)

    def _process(self, now: float, event: Tuple) -> None:
        """Integrate up to ``now``, then run the event's handler."""
        # Energy and breaker exposure integrate over [0, duration_s]
        # only. In-flight requests still drain after duration_s (and
        # their latencies count), but that drain is outside the
        # reported window, so the integral clamps.
        duration_s = self.duration_s
        last = self.last_event_time
        if now <= duration_s:
            dt = now - last
        elif last < duration_s:
            dt = duration_s - last
        else:
            dt = 0.0
        if dt > 0.0:
            row_power = self.row_power
            self.total_energy += row_power * dt
            self.tracker.account(row_power, dt)
        self.last_event_time = now
        EVENT_HANDLERS[event[0]](self, now, event)

    # ------------------------------------------------------------------
    # Event handlers, one per kind (see EVENT_HANDLERS)
    # ------------------------------------------------------------------
    def _on_arrival(self, now: float, event: Tuple) -> None:
        request: SampledRequest = event[1]
        if self.prot is not None and self.shed_active:
            prior = self.defer_counts.get(id(request), 0)
            action = self.emergency.shed_action(
                request.priority.value, request.workload.name, prior,
            )
            if action == "defer":
                self.defer_counts[id(request)] = prior + 1
                self.queue.push(
                    now + self.emergency.defer_s, ("arrival", request)
                )
                self.pf_report.requests_deferred += 1
                if self.recording:
                    self.obs.counter("requests.deferred").inc()
                    self.recorder.emit({
                        "t": now, "kind": "shed_defer",
                        "request_id": self.request_ids[id(request)],
                        "priority": request.priority.value,
                        "workload": request.workload.name,
                        "delay_s": self.emergency.defer_s,
                        "deferrals": prior + 1,
                    })
                return
            if action == "drop":
                self.pf_report.requests_dropped_shed += 1
                self._drop(now, request, "shed", "requests.dropped_shed")
                return
        server = self.balancer.route(request.priority)
        if server is None:
            self._drop(now, request, "saturated")
            return
        index = self.server_index[server.server_id]
        if self._rec_req_arrival:
            self._emit_req_arrival(
                now, request, server.server_id, not server.has_free_slot
            )
        if server.has_free_slot:
            self._start_on(now, index, request)
        else:
            server.buffered = request

    def _on_phase(self, now: float, event: Tuple) -> None:
        index, slot, version = event[1], event[2], event[3]
        server = self.servers[index]
        active = server.slots.get(slot)
        if active is None or active.version != version:
            return  # superseded by a clock change
        finished = active.request
        next_end = server.advance_phase(now, slot)
        if next_end is not None:
            self._refresh_power(now, index)
            self._schedule_slot(index, slot)
            if self._rec_phase_start:
                self._emit_phase_start(now, index, slot)
            return
        # Request complete; the slot is free again.
        self.serves.serve(
            finished.priority, finished.workload.name,
            now - finished.arrival_time,
        )
        if self.recording:
            # Latency histograms batch-populate at finalize from the
            # serve log appended above.
            self._ctr_served.inc()
            if self._rec_serve:
                self.recorder.emit({
                    "t": now, "kind": "serve",
                    "request_id": self.request_ids[id(finished)],
                    "priority": finished.priority.value,
                    "workload": finished.workload.name,
                    "latency_s": now - finished.arrival_time,
                    "server": server.server_id,
                })
        queued = server.take_buffered()
        if queued is not None:
            self._start_on(now, index, queued)
        else:
            self._refresh_power(now, index)

    def _on_tick(self, now: float, event: Tuple) -> None:
        recording = self.recording
        self.power_samples[self.sample_cursor] = self.row_power
        self.sample_cursor += 1
        available_at, reading = self.interface.observe(now, self.row_power)
        fate = self.injector.telemetry_fate(now)
        if recording and fate is not TelemetryFate.OK:
            self.obs.counter("telemetry.faults").inc()
            self.recorder.emit({
                "t": now, "kind": "telemetry_fault",
                "fate": fate.value,
            })
        if fate is TelemetryFate.DROPPED:
            self.stale_ticks += 1
        elif fate is TelemetryFate.FROZEN and self.last_observed is None:
            self.stale_ticks += 1  # nothing to repeat yet: a dropout
        else:
            if fate is TelemetryFate.FROZEN:
                value = self.last_observed
            else:
                value = self.injector.perturb_sample(reading)
            if available_at <= now:
                self._deliver_observation(now, value)
            elif available_at <= self.duration_s:
                self.queue.push(available_at, ("obs", value))
            # else: it would arrive after the horizon; the policy never
            # sees it (see the module docstring).
        # --- Graceful degradation on persistent staleness.
        if self.stale_ticks > self.report.max_missed_ticks:
            self.report.max_missed_ticks = self.stale_ticks
        if self.stale_ticks >= self.reliability.fallback_after_ticks:
            if not self.in_fallback:
                self.in_fallback = True
                self.fallback_entered_at = now
                self.report.fallback_entries += 1
                if recording:
                    self.obs.counter("fallback.entries").inc()
                    self.recorder.emit({
                        "t": now, "kind": "fallback_enter",
                        "stale_ticks": self.stale_ticks,
                    })
                self._command_caps(now, GroupCaps(
                    low_clock_mhz=self.reliability.safe_low_clock_mhz,
                    high_clock_mhz=self.reliability.safe_high_clock_mhz,
                ))
            elif (
                self.brake_state == "off"
                and now - self.fallback_entered_at
                >= self.reliability.brake_after_stale_s
            ):
                self.brake_events += 1
                self.report.fallback_brakes += 1
                self._engage_brake(now, source="fallback")

    def _on_obs(self, now: float, event: Tuple) -> None:
        self._deliver_observation(now, event[1])

    def _on_cap(self, now: float, event: Tuple) -> None:
        priority, clock_mhz, generation = event[1], event[2], event[3]
        ratio = 1.0
        if clock_mhz is not None:
            ratio = clock_mhz / self.clock_denominator
        if self.recording:
            self.recorder.emit({
                "t": now, "kind": "cap_land",
                "priority": priority.value, "clock_mhz": clock_mhz,
                "generation": generation, "ratio": ratio,
            })
        self._land(
            now, self._index_by_priority[priority],
            lambda server: server.apply_clock(now, ratio),
            "cap", {"priority": priority.value, "generation": generation},
        )

    def _on_verify_cap(self, now: float, event: Tuple) -> None:
        priority, clock_mhz, generation = event[1], event[2], event[3]
        if generation != self.cap_generation[priority]:
            return  # superseded by a newer command
        self._settle_verify(
            now, event, "cap", self._group_cap_applied(priority, clock_mhz),
            {"priority": priority.value, "generation": generation},
        )

    def _on_reissue_cap(self, now: float, event: Tuple) -> None:
        priority, clock_mhz, generation, attempts = event[1:]
        if generation == self.cap_generation[priority]:
            self._issue_cap(now, priority, clock_mhz, generation, attempts)

    def _on_brake_landing(self, now: float, event: Tuple) -> None:
        """``brake_on`` and ``brake_off``: land unless superseded."""
        engaged = event[0] == "brake_on"
        version = event[1]
        if self.brake_state != ("pending_on" if engaged else "pending_off") \
                or version != self.brake_version:
            return
        if engaged:
            self.brake_state = "on"
            self.brake_engaged_at = now
        else:
            self.brake_state = "off"
        if self.recording:
            self.recorder.emit({
                "t": now, "kind": "brake_land",
                "on": engaged, "version": version,
            })
        self._land(
            now, range(len(self.servers)),
            lambda server: server.apply_brake(now, engaged),
            "brake", {"version": version, "on": engaged},
        )

    def _on_verify_brake(self, now: float, event: Tuple) -> None:
        want_on, version = event[1], event[2]
        if version != self.brake_version:
            return  # superseded (including cancelled releases)
        self._settle_verify(
            now, event, "brake",
            all(s.braked == want_on for s in self.servers),
            {"want_on": want_on, "version": version},
        )

    def _on_reissue_brake(self, now: float, event: Tuple) -> None:
        want_on, version, attempts = event[1:]
        if version == self.brake_version:
            self._issue_brake(now, want_on, version, attempts)

    def _on_server_fail(self, now: float, event: Tuple) -> None:
        index = event[1]
        server = self.servers[index]
        if server.failed:
            return
        dropped_requests = server.fail(now)
        for request in dropped_requests:
            self.report.requests_lost_to_churn += 1
            self._drop(
                now, request, "churn", "requests.lost_to_churn",
                server=server.server_id,
            )
        self.report.server_failures += 1
        if self.recording:
            self.obs.counter("churn.failures").inc()
            self.recorder.emit({
                "t": now, "kind": "server_fail",
                "server": server.server_id, "index": index,
                "dropped": len(dropped_requests),
            })
        self._refresh_power(now, index)

    def _on_server_recover(self, now: float, event: Tuple) -> None:
        index = event[1]
        server = self.servers[index]
        if not server.failed:
            return
        if self.prot is not None and self.prot.is_deenergized(index):
            # The churn recovery raced a breaker trip: the server has no
            # feed until its protection device re-energizes, which
            # subsumes this recovery.
            return
        server.recover(now)
        self.report.server_recoveries += 1
        if self.recording:
            self.obs.counter("churn.recoveries").inc()
            self.recorder.emit({
                "t": now, "kind": "server_recover",
                "server": server.server_id, "index": index,
            })
        self._refresh_power(now, index)

    def _on_prot(self, now: float, event: Tuple) -> None:
        if now > self.duration_s:
            # Breaker exposure is modeled over the reported window only.
            # Dropping late projections also guarantees termination: a
            # breaker overloaded even at idle would otherwise
            # trip/restore forever and the post-horizon drain would
            # never empty the queue.
            return
        recording = self.recording
        device_id, target, epoch = event[1], event[2], event[3]
        outcome = self.prot.on_projection(now, device_id, target, epoch)
        if outcome is None:
            return  # superseded by a later rate change
        fired, info, pushes = outcome
        for push in pushes:
            self.queue.push(*push)
        if fired in ("risk", "clear"):
            if recording:
                self.recorder.emit({
                    "t": now, "kind": "trip_risk",
                    "device": device_id,
                    "device_level": info["device_level"],
                    "accumulator": info["accumulator"],
                    "overload": info["overload"],
                    "at_risk": 1.0 if fired == "risk" else 0.0,
                })
            self._update_shed(now)
            return
        # The breaker opens: fail the subtree mid-flight. The load
        # balancer redistributes subsequent arrivals onto survivors,
        # which can push a sibling domain over its own limit — the
        # cascade needs no special code.
        covered = self.prot.begin_trip(device_id, now)
        dropped_count = 0
        for index in covered:
            server = self.servers[index]
            if server.failed:
                self._refresh_power(now, index)
                continue
            for request in server.fail(now):
                self.pf_report.requests_lost_to_trips += 1
                dropped_count += 1
                self._drop(
                    now, request, "trip", "requests.lost_to_trips",
                    server=server.server_id, device=device_id,
                )
            self._refresh_power(now, index)
        record, restore_push = self.prot.commit_trip(
            device_id, now, dropped_count
        )
        self.queue.push(*restore_push)
        if recording:
            self.obs.counter("prot.trips").inc()
            offline_w, offline_frac = self.prot.offline_stats(
                self.peak_server_w
            )
            payload = dict(record)
            payload["kind"] = "trip"
            payload["offline_capacity_w"] = offline_w
            payload["offline_fraction"] = offline_frac
            self.recorder.emit(payload)
            self._emit_capacity_status(now)
        self._update_shed(now)

    def _on_prot_restore(self, now: float, event: Tuple) -> None:
        if now > self.duration_s:
            # Servers still dark at the horizon stay dark; the report
            # clamps their offline time to the window.
            return
        device_id, step, version = event[1], event[2], event[3]
        outcome = self.prot.restore_step(device_id, step, version, now)
        if outcome is None:
            return  # superseded by a newer trip
        batch, next_push, done = outcome
        recovered = []
        for index in batch:
            server = self.servers[index]
            if server.failed:
                server.recover(now)
                self._refresh_power(now, index)
                recovered.append(server.server_id)
        if self.recording:
            self.recorder.emit({
                "t": now, "kind": "reenergize",
                "device": device_id, "step": step,
                "servers": recovered,
            })
        if next_push is not None:
            self.queue.push(*next_push)
        if done:
            self.pf_report.reenergizations += 1
            if self.recording:
                self.obs.counter("prot.reenergizations").inc()
                self.recorder.emit({
                    "t": now, "kind": "reenergize_done",
                    "device": device_id,
                })
                self._emit_capacity_status(now)
            self._update_shed(now)

    # ------------------------------------------------------------------
    # Handler helpers shared between kinds
    # ------------------------------------------------------------------
    def _land(
        self,
        now: float,
        indices: Sequence[int],
        apply: Callable[[Any], Dict[int, float]],
        cause: str,
        stamp: Dict[str, Any],
    ) -> None:
        """Land a cap or brake on ``indices``, in index order.

        ``apply(server)`` changes one server's clock state and returns
        its rescheduled slots. Each server's power is refreshed right
        after, so the running row power sums in index order.
        """
        landed = []
        for index in indices:
            server = self.servers[index]
            old_ratio = server.effective_ratio
            landed.append((index, old_ratio, apply(server)))
            self._refresh_power(now, index)
        for index, old_ratio, rescheduled in landed:
            for slot in rescheduled:
                self._schedule_slot(index, slot)
            if self.recording and rescheduled:
                self._emit_rescales(
                    now, index, rescheduled, old_ratio, cause, stamp
                )

    def _settle_verify(
        self,
        now: float,
        event: Tuple,
        trace: str,
        applied: bool,
        stamp: Dict[str, Any],
    ) -> None:
        """Settle the verify deadline of a ``trace`` command.

        A landed command counts as verified; a missing one is re-issued
        with backoff (the ``reissue_<trace>`` event carries the verify
        event's fields with ``attempts + 1``) until the retry budget
        runs out.
        """
        attempts = event[-1]
        report = self.report
        if applied:
            report.commands_verified += 1
            if attempts > 0:
                report.commands_recovered += 1
            abandoned = False
        else:
            report.failures_detected += 1
            abandoned = attempts >= self.reliability.max_retries
        if self.recording:
            self.recorder.emit({
                "t": now, "kind": f"{trace}_verify", **stamp,
                "attempts": attempts, "ok": applied, "abandoned": abandoned,
            })
        if applied:
            return
        if abandoned:
            report.commands_unrecovered += 1
            return
        self.queue.push(
            now + self.reliability.backoff_s(attempts + 1),
            (f"reissue_{trace}",) + event[1:-1] + (attempts + 1,),
        )

    def _drop(
        self,
        now: float,
        request: SampledRequest,
        reason: str,
        counter: Optional[str] = None,
        **where: Any,
    ) -> None:
        """Account one dropped request, and trace it when recording.

        ``counter`` names the cause's own metric next to
        ``requests.dropped``. Shed and saturated drops happen at
        arrival, so their trace carries the unrouted ``req_arrival``
        first; churn and trip drops strike requests in flight and name
        the ``server`` (and ``device``) in ``where``.
        """
        self.serves.drop(request.priority, request.workload.name)
        if not self.recording:
            return
        self._ctr_dropped.inc()
        if counter is not None:
            self.obs.counter(counter).inc()
        if reason in ("shed", "saturated") and self._rec_req_arrival:
            self._emit_req_arrival(now, request, None, False)
        self.recorder.emit({
            "t": now, "kind": "drop",
            "request_id": self.request_ids[id(request)],
            "priority": request.priority.value,
            "workload": request.workload.name,
            "reason": reason, **where,
        })

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self) -> SimulationResult:
        """Check conservation, settle reports, and build the result."""
        config = self.config
        duration_s = self.duration_s
        # Conservation invariant: every scheduled request is accounted
        # exactly once, per priority AND per workload tier — whether it
        # was served, shed, or lost to churn or a breaker trip taking
        # its server offline mid-request.
        offered_by_priority = {p: 0 for p in Priority}
        offered_by_workload: Dict[str, int] = {}
        for request in self.requests:
            if request.arrival_time < duration_s:
                offered_by_priority[request.priority] += 1
                offered_by_workload[request.workload.name] = \
                    offered_by_workload.get(request.workload.name, 0) + 1
        log = self.serves.build()
        by_priority = log.priority_index()
        by_workload = log.workload_index()
        served = np.bincount(by_priority, minlength=len(PRIORITIES))
        for index, priority in enumerate(PRIORITIES):
            dropped = log.dropped_by_priority[index]
            if served[index] + dropped != offered_by_priority[priority]:
                raise SimulationError(
                    "request accounting violated for priority "
                    f"{priority.value}: served {served[index]} + dropped "
                    f"{dropped} != offered "
                    f"{offered_by_priority[priority]}"
                )
        served = np.bincount(by_workload, minlength=len(log.workloads))
        accounted_by_workload = {
            name: int(served[index]) + log.dropped_by_workload[index]
            for index, name in enumerate(log.workloads)
        }
        for name, offered in offered_by_workload.items():
            accounted = accounted_by_workload.get(name, 0)
            if accounted != offered:
                raise SimulationError(
                    f"request accounting violated for workload {name}: "
                    f"served+dropped {accounted} != offered {offered}"
                )

        powerfail = None
        if self.prot is not None:
            if self.shed_active:
                self.pf_report.time_shedding_s += max(
                    0.0, duration_s - min(self.shed_since, duration_s)
                )
            powerfail = self.prot.finalize(self.last_event_time)

        report = self.report
        report.telemetry_dropped_ticks = self.injector.dropped_ticks
        report.telemetry_frozen_ticks = self.injector.frozen_ticks
        report.telemetry_spikes = self.injector.spikes_injected
        report.delayed_actuations = self.injector.delayed_actuations
        report.time_at_risk_s = self.tracker.time_at_risk_s
        report.longest_overbudget_s = self.tracker.longest_overbudget_s

        series = TimeSeries(
            start=0.0,
            interval=config.telemetry_interval_s,
            values=self.power_samples[:self.sample_cursor],
        )
        observability: Optional[Dict[str, Any]] = None
        if self.recording:
            obs = self.obs
            # Batch-populate the latency and utilization histograms
            # from what the hot path appended. Masking the serve log
            # keeps serve order, so each batch is in observation order
            # and the snapshot matches what per-event observes would
            # have produced (the sums up to pairwise-summation ulps).
            self.util_hist.observe_many(self._util_samples)
            for index, priority in enumerate(PRIORITIES):
                self.latency_hists[priority].observe_many(
                    log.latencies[by_priority == index]
                )
            for index, name in enumerate(log.workloads):
                latencies = log.latencies[by_workload == index]
                if len(latencies):
                    self._workload_hist(name).observe_many(latencies)
            obs.counter("telemetry.ticks").inc(self.sample_cursor)
            if self.sample_cursor:
                obs.gauge("power.peak_row_w").set(
                    float(self.power_samples[:self.sample_cursor].max())
                )
            obs.gauge("power.provisioned_w").set(config.provisioned_power_w)
            obs.gauge("energy.total_j").set(self.total_energy)
            observability = obs.snapshot()
            # Live consumers (alert engines, stream monitors — possibly
            # teed with storage sinks) settle their window state at the
            # end of the recorded stream and contribute their own
            # sections (incidents, stream values) next to the metrics
            # snapshot. Plain sinks return None and nothing changes.
            self.recorder.finalize(duration_s)
            extra = self.recorder.observability_snapshot()
            if extra:
                for key, value in extra.items():
                    if key not in observability:
                        observability[key] = value
        if self.timers is not None:
            sim_core = {"kernel_timers": self.timers.snapshot()}
            if observability is None:
                observability = {"sim_core": sim_core}
            else:
                observability["sim_core"] = sim_core
        return SimulationResult(
            serve_log=log,
            power_series=series,
            provisioned_power_w=config.provisioned_power_w,
            power_brake_events=self.brake_events,
            capping_actions=self.capping_actions,
            duration_s=duration_s,
            total_energy_j=self.total_energy,
            robustness=report,
            observability=observability,
            powerfail=powerfail,
        )


#: The one dispatch table: event kind -> handler. The event loop
#: (:meth:`SimulationCore.run_all`) dispatches through
#: :meth:`SimulationCore._process`, which looks handlers up here. It
#: lives at module level so checkpoint blobs never carry it.
EVENT_HANDLERS: Dict[str, Callable[[SimulationCore, float, Tuple], None]] = {
    "arrival": SimulationCore._on_arrival,
    "phase": SimulationCore._on_phase,
    "tick": SimulationCore._on_tick,
    "obs": SimulationCore._on_obs,
    "cap": SimulationCore._on_cap,
    "verify_cap": SimulationCore._on_verify_cap,
    "reissue_cap": SimulationCore._on_reissue_cap,
    "brake_on": SimulationCore._on_brake_landing,
    "brake_off": SimulationCore._on_brake_landing,
    "verify_brake": SimulationCore._on_verify_brake,
    "reissue_brake": SimulationCore._on_reissue_brake,
    "server_fail": SimulationCore._on_server_fail,
    "server_recover": SimulationCore._on_server_recover,
    "prot": SimulationCore._on_prot,
    "prot_restore": SimulationCore._on_prot_restore,
}
