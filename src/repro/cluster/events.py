"""A minimal, deterministic event queue for the cluster simulator.

Events are ``(time, sequence, payload)`` triples held in two sources:

* a **pre-sorted list** of the events known before the run starts (the
  request arrivals and the telemetry tick schedule), adopted once with
  :meth:`EventQueue.adopt`, stored in descending order and consumed
  from its end with ``list.pop()``;
* a **binary heap** of everything scheduled while the run goes (phase
  ends, command landings, verifies, protection and churn events,
  delayed telemetry deliveries).

:meth:`EventQueue.pop` takes whichever head has the smaller
``(time, sequence)``. Both sources draw from one monotonically
increasing sequence counter, so time ties break by insertion order
across the two exactly as they would on a single heap, which keeps
simulations reproducible. Keeping the bulk of the events off the heap
means each pop sifts only the few in-flight runtime events instead of
tens of thousands of already-sorted ones.

Entries are plain tuples rather than objects: both the heap sift and the
head comparison compare ``(time, sequence)`` with tuple comparison in C,
and because the sequence number is unique the payload is never compared.
This is the hottest data structure in the simulator (hundreds of
thousands of pops per run), and tuples cut its cost by several times
over a ``__lt__``-carrying class.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationError

Entry = Tuple[float, int, Any]


class EventQueue:
    """Time-ordered event queue with deterministic tie-breaking."""

    __slots__ = ("_heap", "_sorted", "_sequence", "_last_popped")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        # Known-ahead events in descending (time, sequence) order: the
        # next one is last, so consuming it is an O(1) ``list.pop()``
        # and only the entries not yet consumed are ever carried.
        self._sorted: List[Entry] = []
        self._sequence = 0
        self._last_popped = float("-inf")

    @property
    def sequence(self) -> int:
        """The sequence number the next scheduled event receives."""
        return self._sequence

    def push(self, time: float, payload: Any) -> None:
        """Schedule ``payload`` at ``time``.

        Raises:
            SimulationError: If scheduling into the already-processed past.
        """
        if time < self._last_popped:
            raise SimulationError(
                f"scheduling event at {time} before current time "
                f"{self._last_popped}"
            )
        heappush(self._heap, (time, self._sequence, payload))
        self._sequence += 1

    def adopt(self, entries: List[Entry]) -> None:
        """Take over ``entries``, the batch of events known up front.

        ``entries`` are ``(time, sequence, payload)`` triples numbered
        consecutively from :attr:`sequence` in the order they would
        otherwise have been pushed; they may be in any time order. The
        list is sorted in place and kept, not copied, so the caller must
        not touch it afterwards. A queue adopts one batch only.

        Raises:
            SimulationError: If the queue already holds an adopted batch,
                or any entry lies in the already-processed past.
        """
        if not entries:
            return
        if self._sorted:
            raise SimulationError("event queue already holds a sorted batch")
        entries.sort(reverse=True)
        if entries[-1][0] < self._last_popped:
            raise SimulationError(
                f"scheduling event at {entries[-1][0]} before current "
                f"time {self._last_popped}"
            )
        self._sequence += len(entries)
        self._sorted = entries

    def checkpoint(self) -> Tuple[List[Entry], int, float, int]:
        """The queue's state with its adopted batch reduced to a count.

        ``(heap, sequence, clock, left)``: the runtime heap, the next
        sequence number, the time of the last pop, and how many adopted
        entries are still unconsumed. The batch is consumed in order, so
        those are always its ``left`` latest entries and :meth:`restore`
        needs only the count.
        """
        return self._heap, self._sequence, self._last_popped, len(self._sorted)

    @classmethod
    def restore(
        cls,
        state: Tuple[List[Entry], int, float, int],
        entries: List[Entry],
    ) -> "EventQueue":
        """Rebuild a queue from :meth:`checkpoint` output.

        ``entries`` must be the batch the checkpointed queue adopted,
        rebuilt with the same times and sequence numbers. Like
        :meth:`adopt`, the list is kept, not copied.
        """
        heap, sequence, last_popped, left = state
        queue = cls()
        entries.sort(reverse=True)
        del entries[left:]
        queue._heap = heap
        queue._sorted = entries
        queue._sequence = sequence
        queue._last_popped = last_popped
        return queue

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the earliest ``(time, payload)``.

        Raises:
            SimulationError: If the queue is empty.
        """
        known = self._sorted
        heap = self._heap
        if known and (not heap or known[-1] < heap[0]):
            time, _sequence, payload = known.pop()
        elif heap:
            time, _sequence, payload = heappop(heap)
        else:
            raise SimulationError("pop from empty event queue")
        self._last_popped = time
        return time, payload

    def peek_time(self) -> Optional[float]:
        """Earliest scheduled time, or ``None`` when empty."""
        known = self._sorted
        heap = self._heap
        if known and (not heap or known[-1] < heap[0]):
            return known[-1][0]
        if heap:
            return heap[0][0]
        return None

    def __len__(self) -> int:
        return len(self._heap) + len(self._sorted)

    def __bool__(self) -> bool:
        return bool(self._sorted or self._heap)
