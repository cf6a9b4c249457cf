"""Inference request descriptions and their phase timelines.

A request is fully described by its model, input/output token counts,
batch size, and datatype. The timeline expansion turns one request into a
sequence of :class:`PhaseSegment`\\ s — (duration, activity,
compute-boundedness) triples — which is the single currency shared by the
characterization harness (power time series, Figures 6 and 9) and the
cluster simulator (per-server power and latency under capping).

Both consumers expand through one :class:`CompiledTimeline` per serving
setup. Everything in the expansion that depends only on the model, GPU,
datatype and tensor-parallel degree — delivered FLOP/s and bandwidth,
weight and KV-cache bytes, the attention coefficient, the activity
calibration — is computed once per such combination
(:func:`compiled_timeline`); a request shape then costs a few
multiplications. The arithmetic repeats
:meth:`~repro.models.performance.RooflineLatencyModel.request_latency`
and :class:`~repro.models.power_profile.PhasePowerProfile` operation
for operation, so the segments are bit-identical to theirs; those
classes stay the API for other clock ratios.

For batch-1 requests (every request the cluster simulator serves) the
compiled timeline also keeps tables keyed by token count: the prompt
phase depends only on the input length, and the token phase is a
per-step time at the mean context (``input + output // 2``) times the
output length. :meth:`CompiledTimeline.rows` reads them, so the tables
grow with the distinct token counts of a trace (a few thousand rows for
Table 6), not with its requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.gpu.specs import GpuSpec
from repro.models.datatypes import DType
from repro.models.performance import RooflineLatencyModel
from repro.models.power_profile import PhasePowerProfile
from repro.models.registry import LlmSpec


@dataclass(frozen=True)
class InferenceRequest:
    """One LLM inference request.

    Attributes:
        model_name: Canonical model name from the zoo.
        input_tokens: Prompt length per sequence.
        output_tokens: Tokens to generate per sequence.
        batch_size: Sequences processed together.
        dtype: Optional datatype override.
    """

    model_name: str
    input_tokens: int
    output_tokens: int
    batch_size: int = 1
    dtype: Optional[DType] = None

    def __post_init__(self) -> None:
        _check_sizes(self.input_tokens, self.output_tokens, self.batch_size)

    def with_sizes(
        self,
        input_tokens: Optional[int] = None,
        output_tokens: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> "InferenceRequest":
        """Return a copy with some sizes replaced (for parameter sweeps)."""
        return replace(
            self,
            input_tokens=input_tokens if input_tokens is not None else self.input_tokens,
            output_tokens=output_tokens if output_tokens is not None else self.output_tokens,
            batch_size=batch_size if batch_size is not None else self.batch_size,
        )


@dataclass(frozen=True)
class PhaseSegment:
    """A contiguous stretch of execution with uniform power behaviour.

    Attributes:
        phase: ``"prompt"``, ``"token"``, or ``"idle"``.
        duration_seconds: Duration at the maximum SM clock. Consumers
            stretch this by the phase's compute sensitivity when the clock
            is reduced.
        activity: GPU activity driving the power model.
        compute_fraction: Clock sensitivity of the duration: 1.0 stretches
            inversely with clock, 0.0 is clock-insensitive.
    """

    phase: str
    duration_seconds: float
    activity: float
    compute_fraction: float

    def duration_at(self, clock_ratio: float) -> float:
        """Duration when running at ``clock_ratio`` of the max clock."""
        return duration_at(
            self.duration_seconds, self.compute_fraction, clock_ratio
        )


def duration_at(
    seconds: float, compute_fraction: float, clock_ratio: float
) -> float:
    """A phase's duration at ``clock_ratio`` of the max clock.

    ``seconds`` is its full-clock duration; ``compute_fraction`` is the
    share of it that stretches inversely with the clock.

    Raises:
        ConfigurationError: If the ratio is outside ``(0, 1]``.
    """
    if not 0.0 < clock_ratio <= 1.0:
        raise ConfigurationError(f"clock_ratio {clock_ratio} outside (0, 1]")
    stretch = (1.0 - compute_fraction) + compute_fraction / clock_ratio
    return seconds * stretch


@dataclass(frozen=True)
class RequestTimeline:
    """The phase segments of one request, with convenience accessors."""

    request: InferenceRequest
    segments: List[PhaseSegment] = field(default_factory=list)

    def total_seconds(self, clock_ratio: float = 1.0) -> float:
        """End-to-end duration at the given clock ratio."""
        return sum(seg.duration_at(clock_ratio) for seg in self.segments)

    def peak_activity(self) -> float:
        """Maximum activity across segments (the prompt spike)."""
        return max(seg.activity for seg in self.segments)

    def mean_activity(self, clock_ratio: float = 1.0) -> float:
        """Duration-weighted mean activity (the stable token level)."""
        total = self.total_seconds(clock_ratio)
        weighted = sum(
            seg.activity * seg.duration_at(clock_ratio) for seg in self.segments
        )
        return weighted / total


def _check_sizes(input_tokens: int, output_tokens: int, batch_size: int) -> None:
    if input_tokens <= 0:
        raise ConfigurationError("input_tokens must be positive")
    if output_tokens <= 0:
        raise ConfigurationError("output_tokens must be positive")
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")


class CompiledTimeline:
    """The request-shape-independent part of :func:`request_timeline`.

    Built once per (model, GPU, datatype, tensor-parallel degree) by
    :func:`compiled_timeline`. The constants come from the
    :class:`RooflineLatencyModel`, :class:`PhasePowerProfile` and
    architecture methods themselves, so they carry the same bits.

    It also holds the batch-1 tables behind :meth:`rows`: a prompt row
    (seconds, clamped activity) per input length and a token step time
    per mean context. Both are filled on first use and never cleared;
    their size is bounded by the token-count ranges of a trace.
    """

    __slots__ = (
        "spec", "gpu", "dtype", "n_gpus", "_profile", "_flops_error",
        "_prompt_throughput", "_token_throughput", "_bandwidth",
        "_weight_bytes", "_kv_bytes_per_token", "_dense_per_token",
        "_attention_per_token", "_stretch", "_sensitivity",
        "_prompt_min", "_prompt_span", "_saturation_tokens",
        "_activity_bonus", "_token_activity", "_prompt_rows", "_steps",
    )

    def __init__(
        self,
        spec: LlmSpec,
        gpu: GpuSpec,
        dtype: Optional[DType] = None,
        n_gpus: Optional[int] = None,
    ) -> None:
        # The table keys on the ids of these three; holding them pins
        # the ids for as long as the entry lives.
        self.spec, self.gpu, self.dtype, self.n_gpus = spec, gpu, dtype, n_gpus
        latency = RooflineLatencyModel(
            model=spec, gpu=gpu, dtype=dtype, n_gpus=n_gpus
        )
        self._profile = PhasePowerProfile(model=spec, dtype=dtype)
        arch = spec.architecture
        calibration = spec.calibration
        effective_dtype = latency.effective_dtype
        # A GPU without a peak-FLOPs entry for the datatype fails on the
        # first request, after the size checks, as it always has.
        self._flops_error: Optional[str] = None
        try:
            delivered_flops = latency._delivered_flops()
        except ConfigurationError as error:
            self._flops_error = str(error)
            delivered_flops = math.nan
        self._prompt_throughput = delivered_flops * calibration.mfu_prompt
        self._token_throughput = delivered_flops * calibration.mfu_token
        self._bandwidth = latency._delivered_bandwidth()
        self._weight_bytes = arch.weight_bytes(effective_dtype)
        self._kv_bytes_per_token = arch.kv_cache_bytes_per_token(
            effective_dtype
        )
        self._dense_per_token = arch.forward_flops_per_token()
        self._attention_per_token = 4.0 * arch.n_layers * arch.hidden_size
        sensitivity = calibration.token_clock_sensitivity
        # Written as token_latency writes it at clock ratio 1.0: the sum
        # is not always exactly 1.0.
        self._stretch = (1.0 - sensitivity) + sensitivity / 1.0
        self._sensitivity = sensitivity
        self._prompt_min = calibration.prompt_activity_min
        self._prompt_span = (
            calibration.prompt_activity_max - calibration.prompt_activity_min
        )
        self._saturation_tokens = calibration.prompt_saturation_tokens
        self._activity_bonus = effective_dtype.peak_activity_bonus
        self._token_activity: Dict[int, float] = {}
        self._prompt_rows: Dict[int, Tuple[float, float]] = {}
        self._steps: Dict[int, float] = {}

    def segments(
        self, input_tokens: int, output_tokens: int, batch_size: int = 1
    ) -> Tuple[PhaseSegment, PhaseSegment]:
        """The prompt and token segments of one request shape.

        Raises:
            ConfigurationError: If a size is not positive, or the GPU
                has no peak-FLOPs entry for the datatype.
        """
        _check_sizes(input_tokens, output_tokens, batch_size)
        if self._flops_error is not None:
            raise ConfigurationError(self._flops_error)
        prompt_seconds, prompt_activity = self._prompt_row(
            input_tokens, batch_size
        )
        step = self._token_step(input_tokens + output_tokens // 2, batch_size)
        return self._phase_segments(
            prompt_seconds, prompt_activity, step * output_tokens, batch_size
        )

    def rows(
        self, input_tokens: int, output_tokens: int
    ) -> Tuple[float, float, float]:
        """``(prompt seconds, prompt activity, token seconds)`` of a
        batch-1 request, from the tables: the same bits as the
        :meth:`segments` fields.

        Raises:
            ConfigurationError: As :meth:`segments` does, in the same
                order.
        """
        if input_tokens <= 0 or output_tokens <= 0:
            _check_sizes(input_tokens, output_tokens, 1)
        prompt = self._prompt_rows.get(input_tokens)
        if prompt is None:
            # No row exists without a peak-FLOPs entry, so this is the
            # only place that error can surface.
            if self._flops_error is not None:
                raise ConfigurationError(self._flops_error)
            prompt = self._prompt_row(input_tokens, 1)
            self._prompt_rows[input_tokens] = prompt
        context = input_tokens + output_tokens // 2
        step = self._steps.get(context)
        if step is None:
            step = self._token_step(context, 1)
            self._steps[context] = step
        return prompt[0], prompt[1], step * output_tokens

    def table_segments(
        self, input_tokens: int, output_tokens: int
    ) -> Tuple[PhaseSegment, PhaseSegment]:
        """The segments of a batch-1 request, built from :meth:`rows`."""
        return self._phase_segments(*self.rows(input_tokens, output_tokens), 1)

    def _prompt_row(
        self, input_tokens: int, batch_size: int
    ) -> Tuple[float, float]:
        """Prompt seconds and clamped activity: the prompt half of
        ``RooflineLatencyModel.request_latency`` at clock ratio 1.0 (the
        division by the ratio is exact) and
        ``PhasePowerProfile.prompt_activity``, operand for operand."""
        prompt_flops = (
            self._dense_per_token * input_tokens * batch_size
            + self._attention_per_token * input_tokens * input_tokens
            * batch_size
        )
        tokens = float(input_tokens * batch_size)
        saturation = 1.0 - math.exp(-tokens / self._saturation_tokens)
        prompt_activity = self._prompt_min + self._prompt_span * saturation
        prompt_activity += self._activity_bonus
        return (
            prompt_flops / self._prompt_throughput,
            min(1.0, max(0.0, prompt_activity)),
        )

    def _token_step(self, context: int, batch_size: int) -> float:
        """One decode step at ``context`` tokens, stretched as
        ``token_latency`` stretches it at clock ratio 1.0. The token
        phase is this times the output length: ``a * b * c`` multiplies
        left to right, so the split keeps the bits."""
        read_time = (
            self._weight_bytes
            + self._kv_bytes_per_token * context * batch_size
        ) / self._bandwidth
        compute_time = (
            self._dense_per_token * batch_size
            + self._attention_per_token * context * batch_size
        ) / self._token_throughput
        return max(read_time, compute_time) * self._stretch

    def _phase_segments(
        self,
        prompt_seconds: float,
        prompt_activity: float,
        token_seconds: float,
        batch_size: int,
    ) -> Tuple[PhaseSegment, PhaseSegment]:
        token_activity = self._token_activity.get(batch_size)
        if token_activity is None:
            token_activity = self._profile.token_activity(batch_size)
            self._token_activity[batch_size] = token_activity
        return (
            PhaseSegment("prompt", prompt_seconds, prompt_activity, 1.0),
            PhaseSegment(
                "token", token_seconds, token_activity, self._sensitivity
            ),
        )


#: Entry cap on the compiled-timeline table; real runs use a handful.
_COMPILED_MAX = 256

# Keyed by the identities of (model, GPU, datatype) plus the
# tensor-parallel degree; every value holds strong references to its
# key objects, so ids cannot be recycled while the entry exists.
_compiled: Dict[Tuple[int, int, int, Optional[int]], CompiledTimeline] = {}


def compiled_timeline(
    spec: LlmSpec,
    gpu: GpuSpec,
    dtype: Optional[DType] = None,
    n_gpus: Optional[int] = None,
) -> CompiledTimeline:
    """The shared :class:`CompiledTimeline` for one serving setup."""
    key = (id(spec), id(gpu), id(dtype), n_gpus)
    compiled = _compiled.get(key)
    if compiled is None:
        if len(_compiled) >= _COMPILED_MAX:
            _compiled.clear()
        compiled = CompiledTimeline(spec, gpu, dtype, n_gpus)
        _compiled[key] = compiled
    return compiled


def request_timeline(
    spec: LlmSpec,
    gpu: GpuSpec,
    request: InferenceRequest,
    n_gpus: Optional[int] = None,
) -> RequestTimeline:
    """Expand a request into its prompt and token phase segments.

    The prompt segment is fully compute-bound; the token segment's clock
    sensitivity is the model's calibrated ``token_clock_sensitivity``.
    """
    if request.model_name != spec.name:
        raise ConfigurationError(
            f"request targets {request.model_name!r} but spec is {spec.name!r}"
        )
    segments = compiled_timeline(spec, gpu, request.dtype, n_gpus).segments(
        request.input_tokens, request.output_tokens, request.batch_size
    )
    return RequestTimeline(request=request, segments=list(segments))
