"""Per-request span trees: reconstruction, causal stamping, rendering.

The hand-written streams pin down the exact semantics — interval
boundaries, the brake-release-over-a-capped-pool case, fallback-tainted
cap generations — and the simulator-driven tests check that a live
:class:`SpanBuilder` (teed with a storage sink) reconstructs the same
trees as a post-hoc replay of the recorded trace.
"""

import pytest

from repro.obs import (
    JsonlRecorder,
    MemoryRecorder,
    SpanBuilder,
    TeeRecorder,
    build_spans,
    render_span_tree,
)
from tests.test_obs import (
    REFERENCE_CONFIGS,
    assert_results_bit_identical,
    run_reference,
)


def meta_event(**overrides):
    event = {
        "t": 0.0, "kind": "run_meta", "duration_s": 100.0,
        "n_servers": 1, "concurrency": 2, "provisioned_power_w": 1000.0,
        "idle_server_power_w": 250.0, "brake_ratio": 0.5,
        "servers": {"s0": "low"},
    }
    event.update(overrides)
    return event


def simple_request_events():
    """One request served under a cap, a brake pulse, then the cap again."""
    return [
        meta_event(),
        {"t": 1.0, "kind": "req_arrival", "request_id": 0,
         "priority": "low", "workload": "Chat", "input_tokens": 100,
         "output_tokens": 50, "server": "s0", "queued": False},
        {"t": 1.0, "kind": "phase_start", "request_id": 0, "server": "s0",
         "slot": 0, "phase": "prompt", "phase_index": 0, "ratio": 1.0,
         "full_clock_s": 2.0, "compute_fraction": 1.0, "planned_end": 3.0},
        {"t": 2.0, "kind": "cap_issue", "priority": "low", "generation": 1,
         "attempts": 0},
        {"t": 2.0, "kind": "cap_land", "priority": "low", "generation": 1,
         "ratio": 0.8, "clock_mhz": 1100.0},
        {"t": 2.0, "kind": "phase_rescale", "request_id": 0, "server": "s0",
         "slot": 0, "phase": "prompt", "old_ratio": 1.0, "new_ratio": 0.8,
         "cause": "cap", "priority": "low", "generation": 1},
        {"t": 3.5, "kind": "brake_request", "version": 1, "source": "policy"},
        {"t": 3.5, "kind": "brake_land", "version": 1, "on": True},
        {"t": 3.5, "kind": "phase_rescale", "request_id": 0, "server": "s0",
         "slot": 0, "phase": "prompt", "old_ratio": 0.8, "new_ratio": 0.5,
         "cause": "brake", "version": 1, "on": True},
        {"t": 4.5, "kind": "brake_land", "version": 1, "on": False},
        {"t": 4.5, "kind": "phase_rescale", "request_id": 0, "server": "s0",
         "slot": 0, "phase": "prompt", "old_ratio": 0.5, "new_ratio": 0.8,
         "cause": "brake", "version": 1, "on": False},
        {"t": 6.0, "kind": "serve", "request_id": 0, "priority": "low",
         "workload": "Chat", "latency_s": 5.0, "server": "s0"},
    ]


class TestSpanReconstruction:
    def test_simple_request_span_shape(self):
        spans = build_spans(simple_request_events())
        assert len(spans) == 1
        span = spans[0]
        assert span.request_id == 0
        assert span.outcome == "served"
        assert span.priority == "low" and span.workload == "Chat"
        assert span.server == "s0" and span.queued is False
        assert span.arrival_t == 1.0 and span.end_t == 6.0
        assert span.realized_s == 5.0
        assert span.queue_wait_s == 0.0
        assert len(span.phases) == 1
        phase = span.phases[0]
        assert phase.phase == "prompt"
        assert phase.full_clock_s == 2.0
        assert phase.start == 1.0 and phase.end == 6.0

    def test_intervals_tile_the_phase(self):
        (span,) = build_spans(simple_request_events())
        intervals = span.phases[0].intervals
        assert [(iv.start, iv.end, iv.ratio) for iv in intervals] == [
            (1.0, 2.0, 1.0),
            (2.0, 3.5, 0.8),
            (3.5, 4.5, 0.5),
            (4.5, 6.0, 0.8),
        ]
        # Contiguity: each interval begins where the previous ended.
        for previous, current in zip(intervals, intervals[1:]):
            assert previous.end == current.start
        assert intervals[0].start == span.phases[0].start
        assert intervals[-1].end == span.phases[0].end

    def test_causal_stamps(self):
        (span,) = build_spans(simple_request_events())
        full, capped, braked, recapped = span.phases[0].intervals
        assert full.cause is None and full.stamp == {}
        assert capped.cause == "cap"
        assert capped.stamp == {
            "priority": "low", "generation": 1, "fallback": False,
        }
        assert braked.cause == "brake"
        assert braked.stamp == {"version": 1, "source": "policy"}
        # The brake *release* re-exposes the still-capped pool: the new
        # interval is the cap's fault, not the brake's.
        assert recapped.cause == "cap"
        assert recapped.stamp["generation"] == 1

    def test_fallback_generation_is_tainted(self):
        events = simple_request_events()
        events.insert(3, {"t": 1.5, "kind": "fallback_enter"})
        (span,) = build_spans(events)
        capped = span.phases[0].intervals[1]
        assert capped.cause == "cap"
        assert capped.stamp["fallback"] is True

    def test_cap_issued_outside_fallback_is_untainted(self):
        events = simple_request_events()
        # Fallback exits before the cap is issued: no taint.
        events.insert(1, {"t": 0.5, "kind": "fallback_enter"})
        events.insert(2, {"t": 0.8, "kind": "fallback_exit"})
        (span,) = build_spans(events)
        assert span.phases[0].intervals[1].stamp["fallback"] is False

    def test_brake_source_fallback_is_stamped(self):
        events = simple_request_events()
        for event in events:
            if event["kind"] == "brake_request":
                event["source"] = "fallback"
        (span,) = build_spans(events)
        braked = span.phases[0].intervals[2]
        assert braked.stamp == {"version": 1, "source": "fallback"}

    def test_cancel_release_inherits_engagement_source(self):
        builder = SpanBuilder()
        builder.emit({"t": 1.0, "kind": "brake_request", "version": 1,
                      "source": "fallback"})
        builder.emit({"t": 1.5, "kind": "brake_land", "version": 1,
                      "on": True})
        builder.emit({"t": 2.0, "kind": "brake_cancel_release",
                      "version": 2})
        builder.emit({"t": 2.5, "kind": "brake_land", "version": 2,
                      "on": True})
        cause, stamp = builder._current_cause("s0", 0.5)
        assert cause == "brake"
        assert stamp == {"version": 2, "source": "fallback"}

    def test_drop_closes_the_span(self):
        events = simple_request_events()[:3] + [
            {"t": 4.0, "kind": "drop", "request_id": 0, "priority": "low",
             "reason": "churn", "server": "s0"},
        ]
        (span,) = build_spans(events)
        assert span.outcome == "dropped"
        assert span.drop_reason == "churn"
        assert span.end_t == 4.0
        assert span.phases[0].end == 4.0
        assert span.phases[0].intervals[-1].end == 4.0

    def test_routing_drop_has_no_phases(self):
        events = [
            meta_event(),
            {"t": 1.0, "kind": "req_arrival", "request_id": 7,
             "priority": "high", "workload": "Search", "server": None,
             "queued": False},
            {"t": 1.0, "kind": "drop", "request_id": 7, "priority": "high",
             "reason": "saturated"},
        ]
        (span,) = build_spans(events)
        assert span.outcome == "dropped" and span.phases == []
        assert span.start_t is None and span.queue_wait_s is None

    def test_truncated_trace_leaves_span_in_flight(self):
        events = simple_request_events()[:3]
        (span,) = build_spans(events)
        assert span.outcome == "in_flight"
        assert span.end_t is None and span.realized_s is None
        assert span.phases[0].end is None
        assert span.phases[0].intervals[-1].end is None

    def test_pre_span_traces_are_ignored_gracefully(self):
        """Events recorded before the span layer produce no spans."""
        events = [
            {"t": 1.0, "kind": "serve", "latency_s": 2.0,
             "priority": "low", "workload": "Chat"},
            {"t": 2.0, "kind": "drop", "priority": "low",
             "reason": "saturated"},
            {"t": 3.0, "kind": "cap_land", "priority": "low",
             "generation": 1, "clock_mhz": 1100.0},
        ]
        assert build_spans(events) == []

    def test_unknown_event_kinds_are_skipped(self):
        events = simple_request_events()
        events.insert(4, {"t": 2.0, "kind": "from_the_future", "x": 1})
        assert len(build_spans(events)) == 1

    def test_from_source_accepts_builder_recorder_and_path(self, tmp_path):
        events = simple_request_events()
        builder = SpanBuilder.from_source(events)
        assert SpanBuilder.from_source(builder) is builder
        recorder = MemoryRecorder()
        for event in events:
            recorder.emit(event)
        path = str(tmp_path / "trace.jsonl")
        with JsonlRecorder(path) as sink:
            for event in events:
                sink.emit(event)
        for source in (recorder, path):
            assert build_spans(source) == builder.build()

    def test_get_returns_one_span(self):
        builder = SpanBuilder.from_source(simple_request_events())
        assert builder.get(0).request_id == 0
        assert builder.get(99) is None

    def test_control_events_are_retained(self):
        builder = SpanBuilder.from_source(simple_request_events())
        kinds = [e["kind"] for e in builder.control_events]
        assert kinds == ["cap_land", "brake_land", "brake_land"]

    def test_shed_deferral_keeps_the_original_arrival(self):
        """Deferrals before ``req_arrival`` open the span: its arrival
        stays the first deferral, so the defer delay lands in queue
        wait, as in the simulator's latency accounting."""
        defers = [
            {"t": 0.25, "kind": "shed_defer", "request_id": 0,
             "priority": "low", "workload": "Chat", "delay_s": 0.25,
             "deferrals": 1},
            {"t": 0.5, "kind": "shed_defer", "request_id": 0,
             "priority": "low", "workload": "Chat", "delay_s": 0.25,
             "deferrals": 2},
        ]
        events = simple_request_events()
        (span,) = build_spans(events[:1] + defers + events[1:])
        assert span.deferrals == 2
        assert span.arrival_t == 0.25
        assert span.queue_wait_s == 0.75
        assert span.outcome == "served" and span.workload == "Chat"
        assert "  deferred 2x by load shedding" in render_span_tree(span)

    def test_shed_deferral_without_arrival_counts_itself(self):
        builder = SpanBuilder()
        builder.emit({"t": 3.0, "kind": "shed_defer", "request_id": 4,
                      "priority": "high", "workload": "Search"})
        builder.emit({"t": 3.5, "kind": "shed_defer", "request_id": 4})
        span = builder.get(4)
        assert span.deferrals == 2 and span.arrival_t == 3.0
        assert span.priority == "high" and span.outcome == "in_flight"

    def test_finalize_records_t_end(self):
        builder = SpanBuilder()
        assert builder.t_end is None
        builder.finalize(240.0)
        assert builder.t_end == 240.0

    def test_builder_is_an_enabled_recorder(self):
        assert SpanBuilder().enabled is True


class TestRenderSpanTree:
    def test_served_request_rendering(self):
        (span,) = build_spans(simple_request_events())
        text = "\n".join(render_span_tree(span))
        assert "request 0 [low/Chat] - served" in text
        assert "queue-wait 0.000s" in text
        assert "<- cap low gen 1" in text
        assert "<- brake v1 (policy)" in text
        assert "(latency 5.000s)" in text

    def test_fallback_annotation(self):
        events = simple_request_events()
        events.insert(3, {"t": 1.5, "kind": "fallback_enter"})
        (span,) = build_spans(events)
        assert "[fallback]" in "\n".join(render_span_tree(span))

    def test_dropped_request_rendering(self):
        events = simple_request_events()[:3] + [
            {"t": 4.0, "kind": "drop", "request_id": 0, "priority": "low",
             "reason": "churn", "server": "s0"},
        ]
        (span,) = build_spans(events)
        assert "dropped" in "\n".join(render_span_tree(span))
        assert "(churn)" in "\n".join(render_span_tree(span))


class TestSimulatorSpans:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_live_builder_matches_posthoc_replay(self, name):
        builder = SpanBuilder()
        memory = MemoryRecorder()
        run_reference(name, recorder=TeeRecorder([memory, builder]))
        assert builder.build() == build_spans(memory.events)

    def test_span_recording_does_not_perturb_the_run(self):
        bare = run_reference("polca-adversarial")
        traced = run_reference("polca-adversarial", recorder=SpanBuilder())
        assert_results_bit_identical(bare, traced)

    def test_span_counts_match_result_accounting(self):
        builder = SpanBuilder()
        result = run_reference("polca-oversubscribed", recorder=builder)
        spans = builder.build()
        served = [s for s in spans if s.outcome == "served"]
        dropped = [s for s in spans if s.outcome == "dropped"]
        assert len(served) == result.total_served
        assert len(dropped) == sum(
            m.dropped for m in result.per_priority.values()
        )
        assert not [s for s in spans if s.outcome == "in_flight"]

    def test_simulated_phases_tile_and_order(self):
        builder = SpanBuilder()
        run_reference("polca-default", recorder=builder)
        for span in builder.build():
            for phase in span.phases:
                intervals = phase.intervals
                assert intervals[0].start == phase.start
                if phase.end is not None:
                    assert intervals[-1].end == phase.end
                for previous, current in zip(intervals, intervals[1:]):
                    assert previous.end == current.start
            for previous, current in zip(span.phases, span.phases[1:]):
                assert previous.end == current.start

    def test_observability_snapshot_sections(self):
        builder = SpanBuilder()
        result = run_reference("polca-default", recorder=builder)
        snapshot = result.observability
        assert snapshot["spans"]["requests"] == len(builder.build())
        outcomes = snapshot["spans"]["outcomes"]
        assert outcomes["served"] == result.total_served
        assert snapshot["attribution"]["conservation_ok"] is True
