"""Inference requests and phase timelines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.server_sim import (
    ServerPowerModel,
    ServerSim,
    cached_timeline_segments,
)
from repro.errors import ConfigurationError
from repro.gpu.specs import A100_40GB, A100_80GB, H100_80GB
from repro.models.architecture import ArchitectureKind, TransformerArchitecture
from repro.models.datatypes import FP8, FP16, FP32, INT8, DType
from repro.models.inference import (
    InferenceRequest,
    PhaseSegment,
    compiled_timeline,
    request_timeline,
)
from repro.models.performance import RooflineLatencyModel
from repro.models.power_profile import PhasePowerProfile
from repro.models.registry import (
    MODEL_ZOO,
    LlmSpec,
    PowerCalibration,
    get_model,
)
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import CHAT, Priority


def bloom_request(**overrides):
    defaults = dict(model_name="BLOOM-176B", input_tokens=2048,
                    output_tokens=256, batch_size=1)
    defaults.update(overrides)
    return InferenceRequest(**defaults)


class TestInferenceRequest:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            bloom_request(input_tokens=0)
        with pytest.raises(ConfigurationError):
            bloom_request(output_tokens=0)
        with pytest.raises(ConfigurationError):
            bloom_request(batch_size=0)

    def test_with_sizes_replaces_selectively(self):
        request = bloom_request()
        changed = request.with_sizes(input_tokens=4096)
        assert changed.input_tokens == 4096
        assert changed.output_tokens == request.output_tokens
        assert changed.model_name == request.model_name


class TestPhaseSegment:
    def test_compute_bound_duration_scales_inversely(self):
        segment = PhaseSegment("prompt", 1.0, 0.9, compute_fraction=1.0)
        assert segment.duration_at(0.5) == pytest.approx(2.0)

    def test_memory_bound_duration_unchanged(self):
        segment = PhaseSegment("token", 1.0, 0.5, compute_fraction=0.0)
        assert segment.duration_at(0.5) == pytest.approx(1.0)

    def test_mixed_sensitivity(self):
        segment = PhaseSegment("token", 1.0, 0.5, compute_fraction=0.2)
        assert segment.duration_at(0.5) == pytest.approx(1.2)

    def test_invalid_clock_ratio_rejected(self):
        segment = PhaseSegment("token", 1.0, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            segment.duration_at(0.0)


class TestRequestTimeline:
    def test_two_phases_in_order(self):
        timeline = request_timeline(
            get_model("BLOOM-176B"), A100_80GB, bloom_request()
        )
        assert [seg.phase for seg in timeline.segments] == ["prompt", "token"]

    def test_prompt_is_the_peak(self):
        """Insight 4: the spike is the prompt, the plateau is the token."""
        timeline = request_timeline(
            get_model("BLOOM-176B"), A100_80GB, bloom_request()
        )
        prompt, token = timeline.segments
        assert prompt.activity > token.activity
        assert timeline.peak_activity() == prompt.activity

    def test_token_phase_is_longer(self):
        timeline = request_timeline(
            get_model("BLOOM-176B"), A100_80GB, bloom_request()
        )
        prompt, token = timeline.segments
        assert token.duration_seconds > prompt.duration_seconds

    def test_mean_activity_near_token_level(self):
        timeline = request_timeline(
            get_model("BLOOM-176B"), A100_80GB, bloom_request(output_tokens=1024)
        )
        token = timeline.segments[1]
        assert timeline.mean_activity() == pytest.approx(
            token.activity, abs=0.05
        )

    def test_total_stretches_under_lock(self):
        timeline = request_timeline(
            get_model("BLOOM-176B"), A100_80GB, bloom_request()
        )
        assert timeline.total_seconds(0.8) > timeline.total_seconds(1.0)

    def test_mismatched_model_rejected(self):
        with pytest.raises(ConfigurationError):
            request_timeline(
                get_model("OPT-30B"), A100_80GB, bloom_request()
            )

    def test_prompt_fully_compute_bound_token_weakly(self):
        spec = get_model("BLOOM-176B")
        timeline = request_timeline(spec, A100_80GB, bloom_request())
        prompt, token = timeline.segments
        assert prompt.compute_fraction == 1.0
        assert token.compute_fraction == \
            spec.calibration.token_clock_sensitivity


def reference_segments(spec, gpu, request, n_gpus):
    """The per-request expansion: a latency model and a power profile."""
    latency = RooflineLatencyModel(
        model=spec, gpu=gpu, dtype=request.dtype, n_gpus=n_gpus
    )
    profile = PhasePowerProfile(model=spec, dtype=request.dtype)
    phases = latency.request_latency(
        request.input_tokens, request.output_tokens, request.batch_size
    )
    return [
        PhaseSegment(
            "prompt", phases.prompt_seconds,
            profile.prompt_activity(request.input_tokens, request.batch_size),
            1.0,
        ),
        PhaseSegment(
            "token", phases.token_seconds,
            profile.token_activity(request.batch_size),
            spec.calibration.token_clock_sensitivity,
        ),
    ]


def slot_segments(spec, gpu, inputs, outputs):
    """A request's phases as a fresh server's slot holds them (the
    token activity is the server's, at occupancy 1)."""
    server = ServerSim(
        "s0", Priority.HIGH, model=spec, power_model=ServerPowerModel(gpu=gpu)
    )
    slot = server.start_request(
        0.0, SampledRequest(0.0, CHAT, Priority.HIGH, inputs, outputs)
    )
    active = server.slots[slot]
    segments = []
    for activity in (active.prompt_activity, server._token_activity[1]):
        seconds, fraction = active.phase_shape()
        segments.append(PhaseSegment(active.phase, seconds, activity, fraction))
        server.advance_phase(0.0, slot)
    return segments


def outcome(expand):
    """Segments as field tuples, or the ConfigurationError message."""
    try:
        return [
            (seg.phase, seg.duration_seconds, seg.activity,
             seg.compute_fraction)
            for seg in expand()
        ]
    except ConfigurationError as error:
        return str(error)


GPUS = st.sampled_from([A100_40GB, A100_80GB, H100_80GB])
DTYPES = st.sampled_from([None, FP16, FP32, FP8, INT8])
N_GPUS = st.sampled_from([None, 1, 2, 4, 8])
BATCHES = st.sampled_from([1, 2, 3, 8, 32])
INPUTS = st.integers(min_value=1, max_value=16384)
OUTPUTS = st.integers(min_value=1, max_value=4096)


def unit(low=0.0, high=1.0):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


@st.composite
def synthetic_models(draw):
    """Zoo-shaped models with arbitrary (non-round) constants.

    The zoo's constants are round numbers, for which many reorderings of
    the arithmetic happen to be exact; these are not. (Products of the
    integer layer count, hidden size and token counts stay exact in any
    order below 2**53, so no input tells those orders apart.)
    """
    n_heads = draw(st.integers(min_value=1, max_value=64))
    activity_min = draw(unit(0.0, 0.8))
    return LlmSpec(
        name="synthetic",
        architecture=TransformerArchitecture(
            kind=ArchitectureKind.DECODER,
            n_params=draw(unit(1e6, 4e11)),
            n_layers=draw(st.integers(min_value=1, max_value=128)),
            hidden_size=n_heads * draw(st.integers(min_value=1, max_value=256)),
            n_heads=n_heads,
        ),
        n_inference_gpus=draw(st.sampled_from([1, 2, 4, 8])),
        calibration=PowerCalibration(
            prompt_activity_min=activity_min,
            prompt_activity_max=draw(unit(activity_min, 1.2)),
            prompt_saturation_tokens=draw(unit(50.0, 5000.0)),
            token_activity_base=draw(unit(0.0, 0.8)),
            token_activity_batch_slope=draw(unit(0.0, 0.1)),
            token_clock_sensitivity=draw(unit()),
            mfu_prompt=draw(unit(0.05, 0.9)),
            mfu_token=draw(unit(0.05, 0.9)),
        ),
    )


@st.composite
def synthetic_dtypes(draw):
    """Datatypes with non-round sizes and efficiencies."""
    return DType(
        name=draw(st.sampled_from(["fp32", "fp16", "int8", "fp8"])),
        bytes_per_param=draw(unit(0.25, 4.0)),
        kernel_efficiency=draw(unit(0.05, 1.0)),
        bandwidth_efficiency=draw(unit(0.05, 1.0)),
        peak_activity_bonus=draw(unit(-0.1, 0.1)),
    )


def assert_parity(spec, gpu, dtype, n_gpus, batch, inputs, outputs):
    request = InferenceRequest(spec.name, inputs, outputs, batch, dtype)
    expected = outcome(lambda: reference_segments(spec, gpu, request, n_gpus))
    assert outcome(
        lambda: request_timeline(spec, gpu, request, n_gpus).segments
    ) == expected
    assert outcome(
        lambda: compiled_timeline(spec, gpu, dtype, n_gpus).segments(
            inputs, outputs, batch
        )
    ) == expected
    if dtype is None and n_gpus is None and batch == 1:
        # The batch-1 tables, through both of their readers.
        assert outcome(
            lambda: cached_timeline_segments(spec, gpu, inputs, outputs)
        ) == expected
        assert outcome(
            lambda: slot_segments(spec, gpu, inputs, outputs)
        ) == expected


class TestCompiledTimelineParity:
    """The compiled path and its batch-1 tables are the per-request
    path, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(MODEL_ZOO)), GPUS, DTYPES, N_GPUS,
           BATCHES, INPUTS, OUTPUTS)
    def test_zoo_segments_equal_reference_field_by_field(
        self, model_name, gpu, dtype, n_gpus, batch, inputs, outputs
    ):
        assert_parity(
            get_model(model_name), gpu, dtype, n_gpus, batch, inputs, outputs
        )

    @settings(max_examples=1000, deadline=None)
    @given(synthetic_models(), GPUS, st.one_of(DTYPES, synthetic_dtypes()),
           N_GPUS, st.integers(min_value=1, max_value=64), INPUTS, OUTPUTS)
    def test_synthetic_segments_equal_reference_field_by_field(
        self, spec, gpu, dtype, n_gpus, batch, inputs, outputs
    ):
        assert_parity(spec, gpu, dtype, n_gpus, batch, inputs, outputs)

    @pytest.mark.parametrize("inputs, outputs, batch, message", [
        (0, 16, 1, "input_tokens must be positive"),
        (-3, 16, 1, "input_tokens must be positive"),
        (16, 0, 1, "output_tokens must be positive"),
        (16, -1, 1, "output_tokens must be positive"),
        (16, 16, 0, "batch_size must be positive"),
        (16, 16, -2, "batch_size must be positive"),
    ])
    def test_non_positive_sizes_raise_the_same_error(
        self, inputs, outputs, batch, message
    ):
        spec = get_model("BLOOM-176B")
        with pytest.raises(ConfigurationError) as via_request:
            request_timeline(spec, A100_80GB, InferenceRequest(
                spec.name, inputs, outputs, batch
            ))
        with pytest.raises(ConfigurationError) as via_compiled:
            compiled_timeline(spec, A100_80GB).segments(inputs, outputs, batch)
        assert str(via_request.value) == message
        assert str(via_compiled.value) == message
        if batch == 1:
            for table_path in (
                lambda: cached_timeline_segments(
                    spec, A100_80GB, inputs, outputs
                ),
                lambda: compiled_timeline(spec, A100_80GB).rows(
                    inputs, outputs
                ),
                lambda: slot_segments(spec, A100_80GB, inputs, outputs),
            ):
                with pytest.raises(ConfigurationError) as via_table:
                    table_path()
                assert str(via_table.value) == message

    def test_missing_flops_entry_raises_after_size_checks(self):
        spec = get_model("BLOOM-176B")
        compiled = compiled_timeline(spec, A100_80GB, FP8)
        with pytest.raises(ConfigurationError, match="no peak-FLOPs entry"):
            compiled.segments(128, 16)
        with pytest.raises(ConfigurationError, match="input_tokens"):
            compiled.segments(0, 16)
        # The tables keep no row for a failed expansion: every call
        # raises again, sizes first.
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="no peak-FLOPs"):
                compiled.rows(128, 16)
            with pytest.raises(ConfigurationError, match="output_tokens"):
                compiled.rows(128, 0)
        assert not compiled._prompt_rows and not compiled._steps

    def test_one_compiled_timeline_per_setup(self):
        spec = get_model("OPT-30B")
        assert compiled_timeline(spec, A100_80GB) is \
            compiled_timeline(spec, A100_80GB)
        assert compiled_timeline(spec, A100_80GB, FP16) is not \
            compiled_timeline(spec, A100_80GB)
        assert compiled_timeline(spec, A100_80GB, n_gpus=2) is not \
            compiled_timeline(spec, A100_80GB)
