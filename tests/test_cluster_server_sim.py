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
    """A memo miss expands through the compiled timeline; a hit does not
    expand at all, also in a resumed incremental run."""

    @staticmethod
    def count_expansions(monkeypatch):
        calls = []
        compiled = server_sim.compiled_timeline

        def counted(*args):
            calls.append(args)
            return compiled(*args)

        monkeypatch.setattr(server_sim, "compiled_timeline", counted)
        return calls

    def test_miss_expands_once_then_hits(self, server, monkeypatch):
        # A shape beyond every trace and property test in the suite.
        inputs, outputs = 20011, 77
        calls = self.count_expansions(monkeypatch)
        first = server_sim.cached_timeline_segments(
            server.model, server._spec, inputs, outputs
        )
        slot = server.start_request(0.0, make_request(0.0, inputs, outputs))
        assert server.slots[slot].segments is first
        assert len(calls) == 1

    def test_resume_expands_no_shape(self, monkeypatch):
        from repro.exec import (
            IncrementalExecutor, PolicySpec, RunCache, execute_spec,
        )

        from .test_exec_incremental import POLCA_HIGH, reference_spec

        base_spec = reference_spec("polca-oversubscribed", PolicySpec("POLCA"))
        variant_spec = reference_spec("polca-oversubscribed", POLCA_HIGH)
        execute_spec(base_spec)
        execute_spec(variant_spec)
        calls = self.count_expansions(monkeypatch)
        entries = len(server_sim._timeline_cache)
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(base_spec)
        executor.execute(variant_spec)
        assert executor.stats.resumed_runs == 1
        assert calls == []
        assert len(server_sim._timeline_cache) == entries
