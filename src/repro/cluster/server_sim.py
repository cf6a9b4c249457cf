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
every server at every telemetry tick. Between prompts that power depends
only on occupancy and the effective clock, so each server keeps those
values in a small table; a prompt's power depends on its shape and is
computed each time.

Each server binds the compiled timeline of its model and GPU
(:func:`~repro.models.inference.compiled_timeline`) when it is built. A
request's phases come from that timeline's tables, keyed by token count
(a prompt row per input length, a decode step per mean context), so
starting a request builds no segment object and nothing here grows per
request shape. A slot holds its request's phases as plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.specs import A100_80GB, GpuSpec
from repro.models.inference import (
    CompiledTimeline,
    PhaseSegment,
    compiled_timeline,
    duration_at,
)
from repro.models.power_profile import PhasePowerProfile
from repro.models.registry import LlmSpec, get_model
from repro.server.dgx import HostPowerModel
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import Priority

#: Concurrency slots per server (continuous batching depth).
DEFAULT_CONCURRENCY = 4

#: Phase names by slot phase index.
PHASES = ("prompt", "token")


def cached_timeline_segments(
    model: LlmSpec, gpu: GpuSpec, input_tokens: int, output_tokens: int
) -> Tuple[PhaseSegment, PhaseSegment]:
    """The phase segments of a batch-1 request on (model, gpu), built
    from the compiled timeline's tables.

    Keeps nothing beyond the table rows it reads (or fills), so calling
    it for every shape of a trace warms exactly what the servers use.
    """
    return compiled_timeline(model, gpu).table_segments(
        input_tokens, output_tokens
    )


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

    The phases are the fields of the request's
    :class:`~repro.models.inference.PhaseSegment` pair, bit for bit,
    without the objects: the prompt phase is fully compute-bound, and
    the token phase's activity depends on the server's occupancy, not on
    the request.

    Attributes:
        request: The sampled request being served.
        prompt_s: Full-clock duration of the prompt phase.
        prompt_activity: GPU activity during the prompt phase.
        token_s: Full-clock duration of the token phase.
        token_fraction: Clock sensitivity (compute fraction) of the
            token phase.
        phase_index: Index of the phase currently running
            (:data:`PHASES`).
        phase_end: Absolute time the current phase finishes at the
            server's current effective clock.
        version: Monotonic counter invalidating superseded events.
    """

    request: SampledRequest
    prompt_s: float
    prompt_activity: float
    token_s: float
    token_fraction: float
    phase_index: int
    phase_end: float
    version: int = 0

    @property
    def in_prompt(self) -> bool:
        """Whether the request is currently in its prompt phase."""
        return self.phase_index == 0

    @property
    def phase(self) -> str:
        """Name of the phase currently running."""
        return PHASES[self.phase_index]

    def phase_shape(self) -> Tuple[float, float]:
        """Full-clock seconds and compute fraction of the running phase
        (the inputs of :func:`~repro.models.inference.duration_at`)."""
        if self.phase_index == 0:
            return self.prompt_s, 1.0
        return self.token_s, self.token_fraction


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
    _timeline: CompiledTimeline = field(init=False, repr=False)
    _token_fraction: float = field(init=False, repr=False)
    _profile: PhasePowerProfile = field(init=False, repr=False)
    _next_slot: int = field(init=False, repr=False)
    _token_activity: List[float] = field(init=False, repr=False)
    _token_power: Dict[Tuple[int, float], float] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.concurrency <= 0:
            raise ConfigurationError("concurrency must be positive")
        self._spec = self.power_model.gpu
        self._timeline = compiled_timeline(self.model, self._spec)
        self._token_fraction = self.model.calibration.token_clock_sensitivity
        self._profile = PhasePowerProfile(model=self.model)
        self.slots: Dict[int, ActiveRequest] = {}
        self._next_slot = 0
        # Token-phase activity as a function of occupancy (batch effect).
        self._token_activity = [0.0] + [
            self._profile.token_activity(k)
            for k in range(1, self.concurrency + 1)
        ]
        # Token-phase (and idle) power by (occupancy, effective ratio):
        # at most (concurrency + 1) entries per clock ratio the server
        # runs at. Prompt-phase power depends on the request shape and
        # is computed each time.
        self._token_power = {}

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

    def _prompt_activity(self) -> float:
        """Highest activity among slots in their prompt phase, else 0.0."""
        activity = 0.0
        for active in self.slots.values():
            if active.phase_index == 0 and active.prompt_activity > activity:
                activity = active.prompt_activity
        return activity

    def current_activity(self) -> float:
        """GPU activity right now.

        Prompt processing saturates compute regardless of what else is
        decoding, so a server with any request in its prompt phase runs at
        that prompt's activity; otherwise decode activity grows mildly
        with occupancy; an empty server idles.
        """
        prompt_activity = self._prompt_activity()
        if prompt_activity > 0.0:
            return prompt_activity
        return self._token_activity[min(len(self.slots), self.concurrency)]

    def current_power(self) -> float:
        """Instantaneous server power in watts (zero while crashed).

        Equal to ``power_model.server_power(current_activity(),
        effective_ratio)``; the token-phase and idle values come from
        the per-server table.
        """
        if self.failed:
            return 0.0
        ratio = self.effective_ratio
        prompt_activity = self._prompt_activity()
        if prompt_activity > 0.0:
            return self.power_model.server_power(prompt_activity, ratio)
        key = (min(len(self.slots), self.concurrency), ratio)
        power = self._token_power.get(key)
        if power is None:
            power = self.power_model.server_power(
                self._token_activity[key[0]], ratio
            )
            self._token_power[key] = power
        return power

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
        prompt_s, prompt_activity, token_s = self._timeline.rows(
            request.input_tokens, request.output_tokens
        )
        slot = self._next_slot
        self._next_slot += 1
        self.slots[slot] = ActiveRequest(
            request, prompt_s, prompt_activity, token_s,
            self._token_fraction, 0,
            now + duration_at(prompt_s, 1.0, self.effective_ratio),
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
        if active.phase_index >= len(PHASES):
            del self.slots[slot]
            return None
        active.phase_end = now + duration_at(
            active.token_s, active.token_fraction, self.effective_ratio
        )
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
        :func:`~repro.models.inference.duration_at`), and
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
        full_clock_s, compute_fraction = active.phase_shape()
        return {
            "server": self.server_id,
            "slot": slot,
            "phase": active.phase,
            "phase_index": active.phase_index,
            "ratio": self.effective_ratio,
            "full_clock_s": full_clock_s,
            "compute_fraction": compute_fraction,
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
            seconds, compute_fraction = active.phase_shape()
            old_duration = duration_at(seconds, compute_fraction, old_effective)
            remaining = max(0.0, active.phase_end - now)
            fraction_left = remaining / old_duration if old_duration > 0 else 0.0
            new_duration = duration_at(seconds, compute_fraction, new_effective)
            active.phase_end = now + fraction_left * new_duration
            active.version += 1
            rescheduled[slot] = active.phase_end
        return rescheduled
