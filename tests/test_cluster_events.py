"""Event queue: ordering, determinism, safety."""

import pickle

import pytest

from repro.cluster.events import EventQueue
from repro.errors import SimulationError


def _adopted(queue, events):
    """Adopt ``(time, payload)`` events into ``queue``'s pre-sorted list."""
    start = queue.sequence
    queue.adopt([
        (time, start + offset, payload)
        for offset, (time, payload) in enumerate(events)
    ])


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        for index in range(10):
            queue.push(5.0, index)
        assert [queue.pop()[1] for _ in range(10)] == list(range(10))

    def test_equal_time_never_compares_payloads(self):
        # The heap entry is (time, sequence, payload); the unique
        # sequence makes tuple comparison total before the payload is
        # ever reached. This regression test would raise TypeError on
        # any implementation that lets a tie fall through to the
        # payload — the simulator schedules non-comparable payloads
        # (tuples mixing strings, requests, and None) at equal times
        # constantly (e.g. an arrival, a tick, and a cap landing all
        # at t = 80.0). Entries of the pre-sorted list meet the same
        # ties, both in its sort and against the heap head.
        class Opaque:
            __lt__ = None  # even attempting a compare raises

        queue = EventQueue()
        payloads = [
            ("arrival", Opaque(), 3),
            ("tick",),
            ("cap", None, 1380.0, 7),
            ("arrival", Opaque(), 4),
            ("brake_on", 2),
        ]
        for payload in payloads:
            queue.push(80.0, payload)
        listed = [("arrival", Opaque(), 5), ("tick",), ("arrival", Opaque())]
        _adopted(queue, [(80.0, payload) for payload in listed])
        # Interleave a pop with further equal-time pushes: heap sift-up
        # and sift-down paths both hit the tie comparison.
        assert queue.pop() == (80.0, payloads[0])
        queue.push(80.0, ("obs", Opaque()))
        popped = [queue.pop()[1] for _ in range(len(queue))]
        assert popped[:7] == payloads[1:] + listed
        assert popped[7][0] == "obs"

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(1.0, "x")
        assert queue.peek_time() == 1.0
        assert len(queue) == 1

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None


class TestSafety:
    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_scheduling_into_past_rejected(self):
        queue = EventQueue()
        queue.push(10.0, "late")
        queue.pop()
        with pytest.raises(SimulationError):
            queue.push(5.0, "too-late")

    def test_scheduling_at_current_time_allowed(self):
        queue = EventQueue()
        queue.push(10.0, "a")
        queue.pop()
        queue.push(10.0, "b")  # same instant is fine
        assert queue.pop() == (10.0, "b")

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, "x")
        assert queue and len(queue) == 1


class TestPresortedStream:
    def test_adopted_entries_pop_in_time_order(self):
        queue = EventQueue()
        _adopted(queue, [(3.0, "c"), (1.0, "a"), (2.0, "b")])
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_equal_times_pop_in_insertion_order_across_sources(self):
        # Pushed first, adopted next, pushed again: at one instant they
        # pop in exactly that order, as on a single heap.
        queue = EventQueue()
        queue.push(5.0, "push-0")
        _adopted(queue, [(5.0, "list-0"), (5.0, "list-1"), (1.0, "early")])
        queue.push(5.0, "push-1")
        assert [queue.pop()[1] for _ in range(5)] == [
            "early", "push-0", "list-0", "list-1", "push-1",
        ]

    def test_interleaves_with_heap_by_time(self):
        queue = EventQueue()
        _adopted(queue, [(t, f"tick-{t:g}") for t in (0.0, 2.0, 4.0)])
        queue.push(3.0, "landing")
        queue.push(1.0, "phase")
        assert [queue.pop() for _ in range(5)] == [
            (0.0, "tick-0"), (1.0, "phase"), (2.0, "tick-2"),
            (3.0, "landing"), (4.0, "tick-4"),
        ]

    def test_len_bool_and_peek_count_both_sources(self):
        queue = EventQueue()
        _adopted(queue, [(2.0, "tick")])
        queue.push(1.0, "phase")
        assert queue and len(queue) == 2
        assert queue.peek_time() == 1.0
        queue.pop()
        assert queue and len(queue) == 1
        assert queue.peek_time() == 2.0
        queue.pop()
        assert not queue and len(queue) == 0
        assert queue.peek_time() is None

    def test_pop_empty_after_draining_both_sources_raises(self):
        queue = EventQueue()
        _adopted(queue, [(1.0, "tick")])
        queue.push(2.0, "phase")
        queue.pop()
        queue.pop()
        with pytest.raises(SimulationError):
            queue.pop()

    def test_scheduling_into_past_rejected(self):
        queue = EventQueue()
        _adopted(queue, [(10.0, "tick")])
        queue.pop()
        with pytest.raises(SimulationError):
            queue.push(5.0, "too-late")
        with pytest.raises(SimulationError):
            _adopted(queue, [(5.0, "too-late")])

    def test_second_batch_rejected(self):
        queue = EventQueue()
        _adopted(queue, [(1.0, "tick"), (2.0, "tick")])
        with pytest.raises(SimulationError):
            _adopted(queue, [(3.0, "tick")])
        assert len(queue) == 2

    def test_pickled_mid_run_pops_same_remaining_sequence(self):
        def build():
            queue = EventQueue()
            queue.push(0.5, "prot")
            _adopted(queue, [
                (float(t), ("tick", t)) for t in range(0, 20, 2)
            ] + [(7.0, ("arrival", 0)), (7.0, ("arrival", 1))])
            for t in (3.0, 7.0, 11.0):
                queue.push(t, ("phase", t))
            return queue

        original = build()
        for _ in range(6):
            original.pop()
        restored = pickle.loads(pickle.dumps(original))
        assert len(restored) == len(original)
        original.push(9.0, "late")
        restored.push(9.0, "late")
        expected = [original.pop() for _ in range(len(original))]
        assert [restored.pop() for _ in range(len(restored))] == expected
        # The popped prefix plus the remainder is the full sequence.
        full = build()
        full_order = [full.pop() for _ in range(len(full))]
        assert [e for e in expected if e[1] != "late"] == full_order[6:]

    def test_checkpoint_restore_pops_same_remaining_sequence(self):
        events = [(float(t), ("tick", t)) for t in range(0, 20, 2)] + [
            (7.0, ("arrival", 0)), (7.0, ("arrival", 1)),
        ]

        def batch():
            return [
                (time, 1 + offset, payload)
                for offset, (time, payload) in enumerate(events)
            ]

        for consumed in (0, 5, 9):
            original = EventQueue()
            original.push(0.5, "prot")
            original.adopt(batch())
            for t in (3.0, 7.0, 11.0):
                original.push(t, ("phase", t))
            for _ in range(consumed):
                original.pop()
            # The state shares the live heap; a checkpoint pickles it.
            state = pickle.loads(pickle.dumps(original.checkpoint()))
            assert state[3] == len(original._sorted)
            restored = EventQueue.restore(state, batch())
            assert len(restored) == len(original)
            original.push(9.0, "late")
            restored.push(9.0, "late")
            expected = [original.pop() for _ in range(len(original))]
            assert [restored.pop() for _ in range(len(restored))] == expected

    def test_pickle_carries_only_unconsumed_entries(self):
        queue = EventQueue()
        _adopted(queue, [(float(t), ("tick",)) for t in range(1000)])
        for _ in range(900):
            queue.pop()
        restored = pickle.loads(pickle.dumps(queue))
        assert len(restored) == 100
        assert restored.peek_time() == 900.0
        full = EventQueue()
        _adopted(full, [(float(t), ("tick",)) for t in range(1000)])
        assert len(pickle.dumps(queue)) * 5 < len(pickle.dumps(full))
