"""Per-server simulation state for the cluster simulator.

Each server serves one BLOOM-176B replica across its eight GPUs (Table 3).
Modern serving stacks (vLLM, DeepSpeed-MII — the frameworks the paper
profiles) batch concurrent requests continuously: decode steps share the
weight reads, so a server can serve several requests at near-batch-1
per-request latency while its power rises only mildly with occupancy.
We model that with a fixed number of concurrency slots per server plus the
paper's "one-request buffer per server" (Section 6.6) on top.

Server power is piecewise-constant between events — it changes only on
request start/finish, phase transitions, and clock changes — which lets
the simulator maintain row power as a running sum instead of re-evaluating
every server at every telemetry tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.specs import A100_80GB, GpuSpec
from repro.models.inference import InferenceRequest, PhaseSegment, request_timeline
from repro.models.power_profile import PhasePowerProfile
from repro.models.registry import LlmSpec, get_model
from repro.server.dgx import HostPowerModel
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import Priority

#: Concurrency slots per server (continuous batching depth).
DEFAULT_CONCURRENCY = 4

#: Entry cap on the shared timeline memo cache (below).
_TIMELINE_CACHE_MAX = 1 << 18

# Request timelines depend only on (model, gpu, input_tokens,
# output_tokens) and their expansion is pure roofline math — the single
# most expensive piece of starting a request. Sweeps replay the same
# request trace under many policies/configurations, so memoizing the
# segments process-wide makes every run after the first skip the roofline
# work entirely. Keys are object identities with strong references held
# (so ids cannot be recycled); values are immutable segment tuples shared
# between runs.
_timeline_cache: Dict[Tuple[int, int, int, int], Tuple[PhaseSegment, ...]] = {}
_timeline_cache_refs: Dict[int, object] = {}


def cached_timeline_segments(
    model: LlmSpec, gpu: GpuSpec, input_tokens: int, output_tokens: int
) -> Tuple[PhaseSegment, ...]:
    """Memoized phase segments for a (model, gpu, request-size) triple."""
    key = (id(model), id(gpu), input_tokens, output_tokens)
    segments = _timeline_cache.get(key)
    if segments is None:
        if len(_timeline_cache) >= _TIMELINE_CACHE_MAX:
            _timeline_cache.clear()
            # The strong-ref dict exists only to pin ids used as cache
            # keys; once those keys are gone it must be dropped too, or
            # it grows without bound across huge sweeps.
            _timeline_cache_refs.clear()
        timeline = request_timeline(
            model,
            gpu,
            InferenceRequest(
                model_name=model.name,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
            ),
        )
        segments = tuple(timeline.segments)
        _timeline_cache[key] = segments
        _timeline_cache_refs[id(model)] = model
        _timeline_cache_refs[id(gpu)] = gpu
    return segments


@dataclass(frozen=True)
class ServerPowerModel:
    """Fast closed-form power for an 8-GPU server at (activity, clock).

    Attributes:
        gpu: GPU spec of the server.
        n_gpus: GPUs per server.
        host: Host (CPU/fan/platform) power model — weakly load-following
            per Insight 8.
        power_scale: Multiplier on GPU dynamic power; 1.05 models the
            "workloads become 5% more power-intensive than profiled"
            robustness scenario of Section 6.6.
    """

    gpu: GpuSpec = A100_80GB
    n_gpus: int = 8
    host: HostPowerModel = HostPowerModel()
    power_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.power_scale <= 0:
            raise ConfigurationError("power_scale must be positive")

    def server_power(self, activity: float, clock_ratio: float) -> float:
        """Server power in watts for uniform per-GPU activity."""
        dynamic_range = self.gpu.transient_peak_w - self.gpu.idle_w
        per_gpu_dynamic = (
            activity
            * dynamic_range
            * (clock_ratio ** self.gpu.dvfs_alpha)
            * self.power_scale
        )
        gpu_total = self.n_gpus * (self.gpu.idle_w + per_gpu_dynamic)
        load = min(1.0, per_gpu_dynamic / dynamic_range)
        return gpu_total + self.host.power(load)

    @property
    def brake_ratio(self) -> float:
        """Clock ratio imposed by the power brake."""
        return self.gpu.brake_clock_mhz / self.gpu.max_sm_clock_mhz


@dataclass(slots=True)
class ActiveRequest:
    """Bookkeeping for one request occupying a concurrency slot.

    Slotted: tens of thousands of these are created per simulated day and
    their attributes are read in the inner event loop.

    Attributes:
        request: The sampled request being served.
        segments: Its phase segments (prompt, token); often a shared
            tuple from the process-wide timeline memo cache.
        phase_index: Index of the segment currently running.
        phase_end: Absolute time the current phase finishes at the
            server's current effective clock.
        version: Monotonic counter invalidating superseded events.
    """

    request: SampledRequest
    segments: Sequence[PhaseSegment]
    phase_index: int
    phase_end: float
    version: int = 0

    @property
    def in_prompt(self) -> bool:
        """Whether the request is currently in its prompt phase."""
        return self.segments[self.phase_index].phase == "prompt"


@dataclass(slots=True)
class ServerSim:
    """One inference server inside the cluster simulator.

    Attributes:
        server_id: Identifier within the row.
        priority: The priority pool this server is allocated to (the
            POLCA-aware allocator mixes priorities per row; Section 6.3).
        model: The LLM served (BLOOM-176B in the evaluation).
        power_model: Closed-form server power.
        concurrency: Continuous-batching slots.
    """

    server_id: str
    priority: Priority
    model: LlmSpec = field(default_factory=lambda: get_model("BLOOM-176B"))
    power_model: ServerPowerModel = ServerPowerModel()
    concurrency: int = DEFAULT_CONCURRENCY
    clock_ratio: float = 1.0
    braked: bool = False
    failed: bool = False
    buffered: Optional[SampledRequest] = None
    slots: Dict[int, ActiveRequest] = field(init=False, repr=False)
    _spec: GpuSpec = field(init=False, repr=False)
    _profile: PhasePowerProfile = field(init=False, repr=False)
    _next_slot: int = field(init=False, repr=False)
    _token_activity: List[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.concurrency <= 0:
            raise ConfigurationError("concurrency must be positive")
        self._spec = self.power_model.gpu
        self._profile = PhasePowerProfile(model=self.model)
        self.slots: Dict[int, ActiveRequest] = {}
        self._next_slot = 0
        # Token-phase activity as a function of occupancy (batch effect).
        self._token_activity = [0.0] + [
            self._profile.token_activity(k)
            for k in range(1, self.concurrency + 1)
        ]

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def effective_ratio(self) -> float:
        """Clock ratio after applying the brake over any frequency cap."""
        if self.braked:
            return self.power_model.brake_ratio
        return self.clock_ratio

    @property
    def n_active(self) -> int:
        """Requests currently holding a slot."""
        return len(self.slots)

    @property
    def is_idle(self) -> bool:
        """True when no slot is occupied and nothing is buffered."""
        return not self.slots and self.buffered is None

    @property
    def has_free_slot(self) -> bool:
        """True when a concurrency slot is available (never on a failed
        server — the router must not place work on a crashed box)."""
        return not self.failed and len(self.slots) < self.concurrency

    @property
    def can_buffer(self) -> bool:
        """True when all slots are busy but the one-slot buffer is free."""
        return (
            not self.failed
            and len(self.slots) >= self.concurrency
            and self.buffered is None
        )

    def current_activity(self) -> float:
        """GPU activity right now.

        Prompt processing saturates compute regardless of what else is
        decoding, so a server with any request in its prompt phase runs at
        that prompt's activity; otherwise decode activity grows mildly
        with occupancy; an empty server idles.
        """
        if not self.slots:
            return 0.0
        prompt_activity = 0.0
        for active in self.slots.values():
            if active.in_prompt:
                prompt_activity = max(
                    prompt_activity, active.segments[active.phase_index].activity
                )
        if prompt_activity > 0.0:
            return prompt_activity
        return self._token_activity[min(self.n_active, self.concurrency)]

    def current_power(self) -> float:
        """Instantaneous server power in watts (zero while crashed)."""
        if self.failed:
            return 0.0
        return self.power_model.server_power(
            self.current_activity(), self.effective_ratio
        )

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def start_request(self, now: float, request: SampledRequest) -> int:
        """Begin serving ``request`` in a free slot; returns the slot id.

        Raises:
            SimulationError: If no slot is free.
        """
        if self.failed:
            raise SimulationError(f"{self.server_id}: server is failed")
        if not self.has_free_slot:
            raise SimulationError(f"{self.server_id}: no free slot")
        segments = cached_timeline_segments(
            self.model, self._spec, request.input_tokens, request.output_tokens
        )
        slot = self._next_slot
        self._next_slot += 1
        self.slots[slot] = ActiveRequest(
            request=request,
            segments=segments,
            phase_index=0,
            phase_end=now + segments[0].duration_at(self.effective_ratio),
        )
        return slot

    def advance_phase(self, now: float, slot: int) -> Optional[float]:
        """Move a slot to its next phase; returns the new phase-end time,
        or ``None`` when the request completed (and the slot is freed).

        Raises:
            SimulationError: If the slot is not active.
        """
        try:
            active = self.slots[slot]
        except KeyError:
            raise SimulationError(
                f"{self.server_id}: slot {slot} not active"
            ) from None
        active.phase_index += 1
        if active.phase_index >= len(active.segments):
            del self.slots[slot]
            return None
        segment = active.segments[active.phase_index]
        active.phase_end = now + segment.duration_at(self.effective_ratio)
        active.version += 1
        return active.phase_end

    def take_buffered(self) -> Optional[SampledRequest]:
        """Pop the buffered request, if any."""
        request, self.buffered = self.buffered, None
        return request

    def slot_snapshot(self, slot: int) -> Dict[str, Any]:
        """Recording payload for the phase currently running in a slot.

        Everything the span layer (:mod:`repro.obs.spans`) needs to
        reconstruct and counterfactual a phase: its name and index, the
        effective clock ratio it starts under, its full-clock duration
        and compute fraction (the inputs of
        :meth:`~repro.models.inference.PhaseSegment.duration_at`), and
        the planned end time. Read-only: observing a slot must not
        perturb the simulation.

        Raises:
            SimulationError: If the slot is not active.
        """
        try:
            active = self.slots[slot]
        except KeyError:
            raise SimulationError(
                f"{self.server_id}: slot {slot} not active"
            ) from None
        segment = active.segments[active.phase_index]
        return {
            "server": self.server_id,
            "slot": slot,
            "phase": segment.phase,
            "phase_index": active.phase_index,
            "ratio": self.effective_ratio,
            "full_clock_s": segment.duration_seconds,
            "compute_fraction": segment.compute_fraction,
            "planned_end": active.phase_end,
        }

    # ------------------------------------------------------------------
    # Server churn (fault injection)
    # ------------------------------------------------------------------
    def fail(self, now: float) -> List[SampledRequest]:
        """Crash the server: drop every in-flight and buffered request.

        Returns the dropped requests (slot order, buffered last) so the
        simulator can account them; the server contributes zero power and
        accepts no work until :meth:`recover`. Commanded clock/brake
        state is retained — the management plane keeps applying row-wide
        commands to the slot, so a recovering server rejoins with the
        current configuration.

        Raises:
            SimulationError: If the server is already failed.
        """
        if self.failed:
            raise SimulationError(f"{self.server_id}: already failed")
        dropped = [active.request for active in self.slots.values()]
        if self.buffered is not None:
            dropped.append(self.buffered)
        self.slots.clear()
        self.buffered = None
        self.failed = True
        return dropped

    def recover(self, now: float) -> None:
        """Rejoin the row idle, with the currently commanded clock state.

        Raises:
            SimulationError: If the server is not failed.
        """
        if not self.failed:
            raise SimulationError(f"{self.server_id}: not failed")
        self.failed = False

    # ------------------------------------------------------------------
    # Clock changes
    # ------------------------------------------------------------------
    def apply_clock(self, now: float, clock_ratio: float) -> Dict[int, float]:
        """Change the frequency cap; rescales all in-flight phases.

        Returns ``{slot: new_phase_end}`` for every rescheduled slot.

        Raises:
            ConfigurationError: If the ratio is outside ``(0, 1]``.
        """
        if not 0.0 < clock_ratio <= 1.0:
            raise ConfigurationError(f"clock_ratio {clock_ratio} outside (0, 1]")
        old_effective = self.effective_ratio
        self.clock_ratio = clock_ratio
        return self._rescale_phases(now, old_effective)

    def apply_brake(self, now: float, engaged: bool) -> Dict[int, float]:
        """Engage or release the power brake; rescales in-flight phases."""
        old_effective = self.effective_ratio
        self.braked = engaged
        return self._rescale_phases(now, old_effective)

    def _rescale_phases(
        self, now: float, old_effective: float
    ) -> Dict[int, float]:
        """Stretch/shrink remaining work after an effective-clock change."""
        new_effective = self.effective_ratio
        if math.isclose(old_effective, new_effective):
            return {}
        rescheduled: Dict[int, float] = {}
        for slot, active in self.slots.items():
            segment = active.segments[active.phase_index]
            old_duration = segment.duration_at(old_effective)
            remaining = max(0.0, active.phase_end - now)
            fraction_left = remaining / old_duration if old_duration > 0 else 0.0
            new_duration = segment.duration_at(new_effective)
            active.phase_end = now + fraction_left * new_duration
            active.version += 1
            rescheduled[slot] = active.phase_end
        return rescheduled
