"""Per-server simulation state: slots, phases, clocks, brakes."""

import pytest

from repro.cluster import server_sim
from repro.cluster.server_sim import ServerPowerModel, ServerSim
from repro.errors import ConfigurationError, SimulationError
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import CHAT, Priority


def make_request(arrival=0.0, inputs=2048, outputs=256):
    return SampledRequest(
        arrival_time=arrival,
        workload=CHAT,
        priority=Priority.HIGH,
        input_tokens=inputs,
        output_tokens=outputs,
    )


@pytest.fixture()
def server():
    return ServerSim(server_id="s0", priority=Priority.HIGH)


class TestServerPowerModel:
    def test_idle_power(self):
        model = ServerPowerModel()
        idle = model.server_power(0.0, 1.0)
        assert idle == pytest.approx(8 * 80 + model.host.power(0.0))

    def test_power_scale_raises_dynamic_only(self):
        base = ServerPowerModel()
        scaled = ServerPowerModel(power_scale=1.05)
        assert scaled.server_power(0.0, 1.0) == base.server_power(0.0, 1.0)
        assert scaled.server_power(0.6, 1.0) > base.server_power(0.6, 1.0)

    def test_brake_ratio(self):
        model = ServerPowerModel()
        assert model.brake_ratio == pytest.approx(288.0 / 1410.0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerPowerModel(power_scale=0.0)


class TestSlots:
    def test_starts_idle(self, server):
        assert server.is_idle
        assert server.current_activity() == 0.0

    def test_start_request_occupies_slot(self, server):
        server.start_request(0.0, make_request())
        assert server.n_active == 1
        assert not server.is_idle
        assert server.has_free_slot

    def test_concurrency_limit(self, server):
        for _ in range(server.concurrency):
            server.start_request(0.0, make_request())
        assert not server.has_free_slot
        with pytest.raises(SimulationError):
            server.start_request(0.0, make_request())

    def test_buffer_available_only_when_full(self, server):
        assert not server.can_buffer  # idle servers take slots directly
        for _ in range(server.concurrency):
            server.start_request(0.0, make_request())
        assert server.can_buffer
        server.buffered = make_request()
        assert not server.can_buffer

    def test_take_buffered(self, server):
        request = make_request()
        server.buffered = request
        assert server.take_buffered() is request
        assert server.take_buffered() is None


class TestPhases:
    def test_prompt_then_token_then_done(self, server):
        slot = server.start_request(0.0, make_request())
        assert server.slots[slot].in_prompt
        next_end = server.advance_phase(1.0, slot)
        assert next_end is not None
        assert not server.slots[slot].in_prompt
        assert server.advance_phase(next_end, slot) is None
        assert server.n_active == 0

    def test_advance_unknown_slot_rejected(self, server):
        with pytest.raises(SimulationError):
            server.advance_phase(0.0, 42)

    def test_prompt_activity_dominates(self, server):
        slot_a = server.start_request(0.0, make_request())
        server.advance_phase(1.0, slot_a)  # a now decoding
        decode_activity = server.current_activity()
        server.start_request(1.0, make_request())  # b in prompt
        assert server.current_activity() > decode_activity

    def test_decode_activity_rises_with_occupancy(self, server):
        slots = [server.start_request(0.0, make_request()) for _ in range(3)]
        for slot in slots:
            server.advance_phase(1.0, slot)
        three = server.current_activity()
        server.advance_phase(100.0, slots[0])
        server.advance_phase(100.0, slots[1])
        one = server.current_activity()
        assert one < three


class TestClockChanges:
    def test_clock_change_rescales_remaining_work(self, server):
        slot = server.start_request(0.0, make_request())
        original_end = server.slots[slot].phase_end
        rescheduled = server.apply_clock(0.0, 0.5)
        assert slot in rescheduled
        # Prompt is fully compute-bound: remaining time doubles at half clock.
        assert rescheduled[slot] == pytest.approx(2 * original_end)

    def test_partial_progress_preserved(self, server):
        slot = server.start_request(0.0, make_request())
        end = server.slots[slot].phase_end
        halfway = end / 2
        rescheduled = server.apply_clock(halfway, 0.5)
        expected = halfway + 2 * (end - halfway)
        assert rescheduled[slot] == pytest.approx(expected)

    def test_noop_clock_change_reschedules_nothing(self, server):
        server.start_request(0.0, make_request())
        assert server.apply_clock(0.0, 1.0) == {}

    def test_version_bumped_on_reschedule(self, server):
        slot = server.start_request(0.0, make_request())
        version = server.slots[slot].version
        server.apply_clock(0.0, 0.8)
        assert server.slots[slot].version == version + 1

    def test_invalid_ratio_rejected(self, server):
        with pytest.raises(ConfigurationError):
            server.apply_clock(0.0, 0.0)

    def test_clock_lowers_power(self, server):
        server.start_request(0.0, make_request())
        free = server.current_power()
        server.apply_clock(0.0, 0.787)  # POLCA's deep LP cap
        assert server.current_power() < free


class TestBrake:
    def test_brake_overrides_clock(self, server):
        server.apply_clock(0.0, 0.9)
        server.apply_brake(0.0, True)
        assert server.effective_ratio == pytest.approx(288.0 / 1410.0)
        server.apply_brake(0.0, False)
        assert server.effective_ratio == pytest.approx(0.9)

    def test_brake_rescales_all_slots(self, server):
        slots = [server.start_request(0.0, make_request()) for _ in range(2)]
        rescheduled = server.apply_brake(0.0, True)
        assert set(rescheduled) == set(slots)

    def test_brake_power_collapse(self, server):
        server.start_request(0.0, make_request())
        free = server.current_power()
        server.apply_brake(0.0, True)
        assert server.current_power() < 0.6 * free


class TestPowerTable:
    """Token-phase power comes from a per-server table; the value must
    be the closed form's, and the table must not grow with shapes."""

    @staticmethod
    def assert_power_consistent(server):
        assert server.current_power() == server.power_model.server_power(
            server.current_activity(), server.effective_ratio
        )

    def test_power_matches_closed_form_through_a_lifecycle(self, server):
        check = self.assert_power_consistent
        check(server)
        now = 0.0
        for step in range(40):
            now += 0.5
            if server.has_free_slot:
                server.start_request(
                    now, make_request(now, inputs=97 + 61 * step,
                                      outputs=5 + 7 * step),
                )
                check(server)
            for slot in list(server.slots)[: step % 3]:
                server.advance_phase(now, slot)
                check(server)
            if step % 5 == 0:
                server.apply_clock(now, (0.787, 0.904, 1.0)[step % 3])
                check(server)
            if step % 7 == 3:
                server.apply_brake(now, not server.braked)
                check(server)
        server.fail(now)
        assert server.current_power() == 0.0

    def test_table_bounded_across_distinct_prompt_shapes(self, server):
        ratios = (1.0, 0.904, 0.787)
        for step in range(300):
            server.apply_clock(float(step), ratios[step % 3])
            if not server.has_free_slot:
                for slot in list(server.slots):
                    server.advance_phase(float(step), slot)
            server.start_request(
                float(step), make_request(inputs=64 + 13 * step,
                                          outputs=3 + step),
            )
            server.current_power()
            for slot in list(server.slots):
                if server.slots[slot].in_prompt:
                    server.advance_phase(float(step), slot)
            self.assert_power_consistent(server)
        assert 0 < len(server._token_power) <= \
            (server.concurrency + 1) * len(ratios)


class TestTimelineMemo:
    """Timelines come from per-token-count tables, never a per-shape
    memo: a row is built once per input count or context and then hit,
    also by other shapes and by a resumed incremental run, and nothing
    in ``server_sim`` grows per request."""

    @staticmethod
    def count_expansions(monkeypatch):
        from repro.models import inference

        calls = []
        compiled = inference.CompiledTimeline
        prompt_row, token_step = compiled._prompt_row, compiled._token_step

        def counted_prompt(self, *args):
            calls.append(("prompt", args))
            return prompt_row(self, *args)

        def counted_step(self, *args):
            calls.append(("step", args))
            return token_step(self, *args)

        monkeypatch.setattr(compiled, "_prompt_row", counted_prompt)
        monkeypatch.setattr(compiled, "_token_step", counted_step)
        return calls

    @staticmethod
    def containers(module):
        return {
            name: len(value) for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))
            and not name.startswith("__")
        }

    def test_miss_expands_once_then_hits(self, monkeypatch):
        from repro.models import inference

        # Fresh compiled timelines, so the tables hold this test's rows.
        monkeypatch.setattr(inference, "_compiled", {})
        server = ServerSim(server_id="s0", priority=Priority.HIGH)
        module_before = self.containers(server_sim)
        calls = self.count_expansions(monkeypatch)
        inputs, outputs = 20011, 77
        first = server_sim.cached_timeline_segments(
            server.model, server._spec, inputs, outputs
        )
        assert calls == [("prompt", (inputs, 1)),
                         ("step", (inputs + outputs // 2, 1))]
        slot = server.start_request(0.0, make_request(0.0, inputs, outputs))
        active = server.slots[slot]
        prompt, token = first
        assert (active.prompt_s, active.prompt_activity, active.token_s) \
            == (prompt.duration_seconds, prompt.activity, token.duration_seconds)
        # Another shape with the same input count and context hits both
        # rows: the tables key on token counts, not on request shapes.
        server.start_request(0.0, make_request(0.0, inputs, outputs - 1))
        assert len(calls) == 2
        tables = server._timeline
        assert tables is inference.compiled_timeline(server.model, server._spec)
        assert list(tables._prompt_rows) == [inputs]
        assert list(tables._steps) == [inputs + outputs // 2]
        assert self.containers(server_sim) == module_before

    def test_resume_expands_no_shape(self, monkeypatch):
        from repro.exec import (
            IncrementalExecutor, PolicySpec, RunCache, execute_spec,
        )
        from repro.exec.traces import requests_for
        from repro.gpu.specs import A100_80GB
        from repro.models import inference
        from repro.models.registry import get_model

        from .test_exec_incremental import POLCA_HIGH, reference_spec

        monkeypatch.setattr(inference, "_compiled", {})
        module_before = self.containers(server_sim)
        base_spec = reference_spec("polca-oversubscribed", PolicySpec("POLCA"))
        variant_spec = reference_spec("polca-oversubscribed", POLCA_HIGH)
        execute_spec(base_spec)
        execute_spec(variant_spec)
        tables = inference.compiled_timeline(
            get_model("BLOOM-176B"), A100_80GB
        )
        requests = requests_for(base_spec.trace_key())
        inputs = {r.input_tokens for r in requests}
        contexts = {r.input_tokens + r.output_tokens // 2 for r in requests}
        assert 0 < len(tables._prompt_rows) <= len(inputs)
        assert set(tables._prompt_rows) <= inputs
        assert 0 < len(tables._steps) <= len(contexts)
        assert set(tables._steps) <= contexts
        rows = dict(tables._prompt_rows), dict(tables._steps)

        # A checkpoint resume rebuilds its servers on the same compiled
        # timeline and builds no row.
        calls = self.count_expansions(monkeypatch)
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(base_spec)
        executor.execute(variant_spec)
        assert executor.stats.resumed_runs == 1
        assert calls == []
        assert (tables._prompt_rows, tables._steps) == rows
        assert len(inference._compiled) == 1
        assert self.containers(server_sim) == module_before
