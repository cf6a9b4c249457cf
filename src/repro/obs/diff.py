"""Root-causing divergent runs: find the *first* differing event.

The repo leans hard on bit-identical guarantees — recorded vs
unrecorded, parallel vs serial, cached vs fresh, all-zeros fault plan
vs none. When two runs that should match do not, the useful question is
never "do they differ" (a digest answers that) but *where first*: two
simulations share every event up to the first divergence, after which
everything downstream is noise. This module localizes that point:

* :func:`diff_traces` walks two recorded event streams in lockstep and
  returns the first :class:`Divergence` — event index, simulation time,
  event kind, the specific field, and both values (or an end-of-trace
  marker when one stream is a prefix of the other);
* :func:`diff_results` does the same over two
  :class:`~repro.cluster.metrics.SimulationResult`\\ s via their codec
  dict forms, reporting a dotted path (``power_series.values[17]``)
  into the first differing leaf (both walk nested data with
  :func:`walk_leaves`, the traversal :mod:`repro.obs.regress` also
  uses for its per-metric verdicts);
* :func:`format_divergence` renders either for humans (the engine of
  ``examples/trace_inspect.py diff``).

Traces are compared in recorded order (the simulator's event order is
deterministic), so the first reported divergence really is the first
causally divergent decision of the two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.obs.recorder import TraceEvent

__all__ = [
    "Divergence",
    "diff_dicts",
    "diff_results",
    "diff_traces",
    "format_divergence",
    "leaves",
    "walk_leaves",
]


@dataclass(frozen=True)
class Divergence:
    """The first point where two streams disagree.

    Attributes:
        index: 0-based event index (for traces) or -1 (result diffs).
        t: Simulation time of the divergent event, when it carries one.
        kind: Event kind at the divergence, when applicable.
        field: The differing field — an event payload key, a dotted
            result path, or one of the markers ``"<kind>"`` (the events
            are of different kinds), ``"<end-of-trace>"`` (one stream
            ended early), ``"<missing>"`` (a key present on one side
            only).
        a: Value on the first stream (``None`` when absent).
        b: Value on the second stream (``None`` when absent).
    """

    index: int
    field: str
    a: Any
    b: Any
    t: Optional[float] = None
    kind: Optional[str] = None


def _event_time(event: TraceEvent) -> Optional[float]:
    t = event.get("t")
    return None if t is None else float(t)


def diff_traces(
    a: Sequence[TraceEvent], b: Sequence[TraceEvent]
) -> Optional[Divergence]:
    """First divergent event between two traces (``None`` if identical).

    Compares in recorded order. For the first differing event pair the
    divergence names the first differing field in sorted key order
    (kind mismatches win over payload mismatches); if one trace is a
    strict prefix of the other, the divergence is an
    ``"<end-of-trace>"`` marker carrying the surviving event's kind and
    time.
    """
    for index, (ea, eb) in enumerate(zip(a, b)):
        if ea == eb:
            continue
        kind_a, kind_b = ea.get("kind"), eb.get("kind")
        if kind_a != kind_b:
            return Divergence(
                index=index, field="<kind>", a=kind_a, b=kind_b,
                t=_event_time(ea), kind=kind_a,
            )
        for key in sorted(set(ea) | set(eb)):
            if key in ea and key in eb:
                if ea[key] != eb[key]:
                    return Divergence(
                        index=index, field=key, a=ea[key], b=eb[key],
                        t=_event_time(ea), kind=kind_a,
                    )
            else:
                return Divergence(
                    index=index, field="<missing>",
                    a=ea.get(key, f"<no {key!r}>"),
                    b=eb.get(key, f"<no {key!r}>"),
                    t=_event_time(ea), kind=kind_a,
                )
    if len(a) != len(b):
        index = min(len(a), len(b))
        survivor = a[index] if len(a) > len(b) else b[index]
        return Divergence(
            index=index, field="<end-of-trace>",
            a=len(a), b=len(b),
            t=_event_time(survivor), kind=survivor.get("kind"),
        )
    return None


#: Marks the side of a leaf pair where a dict key is missing.
_ABSENT = object()


def walk_leaves(
    a: Any, b: Any, path: str = ""
) -> Iterator[Tuple[str, Any, Any]]:
    """Aligned ``(dotted-path, leaf_a, leaf_b)`` pairs of two structures.

    Depth-first, dict keys in sorted order, list items by index. Where
    only one side has a dict key the pair holds that side's whole value
    and ``_ABSENT``; where two lists differ in length the common prefix
    is walked and then one ``path.length`` pair carries both lengths.
    Walking a structure against itself (:func:`leaves`) yields every
    leaf exactly once.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            child = f"{path}.{key}" if path else str(key)
            if key in a and key in b:
                yield from walk_leaves(a[key], b[key], child)
            else:
                yield child, a.get(key, _ABSENT), b.get(key, _ABSENT)
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            yield from walk_leaves(item_a, item_b, f"{path}[{index}]")
        if len(a) != len(b):
            yield f"{path}.length", len(a), len(b)
    else:
        yield path, a, b


def leaves(value: Any) -> Iterator[Tuple[str, Any]]:
    """Every ``(dotted-path, leaf)`` of one structure, walk order."""
    for path, leaf, _ in walk_leaves(value, value):
        yield path, leaf


def diff_dicts(a: Any, b: Any) -> Optional[Divergence]:
    """First divergent leaf between two JSON-like structures.

    The generic core of :func:`diff_results`, exposed for callers that
    already hold plain dict/list data — benchmark reports, ledger
    entries, observability snapshots. The divergence's ``field`` is a
    dotted path (``serial.wall_s``, ``grid.combos[2]``) into the first
    differing leaf in sorted-key, depth-first order.
    """
    for path, value_a, value_b in walk_leaves(a, b):
        if value_a is _ABSENT or value_b is _ABSENT or value_a != value_b:
            return Divergence(
                index=-1, field=path,
                a="<absent>" if value_a is _ABSENT else value_a,
                b="<absent>" if value_b is _ABSENT else value_b,
            )
    return None


def diff_results(result_a: Any, result_b: Any) -> Optional[Divergence]:
    """First divergent field between two simulation results.

    Results are compared through their codec dict form
    (:func:`repro.exec.codec.result_to_dict`), so every reported
    quantity — power series samples, latency lists, robustness
    counters, observability snapshots — is covered, and the divergence
    path is a stable dotted address into that form.
    """
    # Imported here: codec imports cluster.metrics, which this module
    # must not require at import time (repro.obs has no exec dependency).
    from repro.exec.codec import result_to_dict

    return diff_dicts(result_to_dict(result_a), result_to_dict(result_b))


def format_divergence(
    divergence: Optional[Divergence],
    label_a: str = "A",
    label_b: str = "B",
) -> List[str]:
    """Human-readable lines for a divergence (or its absence)."""
    if divergence is None:
        return ["streams are identical"]
    lines: List[str] = []
    if divergence.field == "<end-of-trace>":
        shorter = label_a if divergence.a < divergence.b else label_b
        lines.append(
            f"{shorter} ends early: {label_a} has {divergence.a} events, "
            f"{label_b} has {divergence.b}"
        )
        if divergence.kind is not None:
            where = f" (t={divergence.t:.3f}s)" if divergence.t is not None \
                else ""
            lines.append(
                f"first unmatched event: [{divergence.index}] "
                f"{divergence.kind}{where}"
            )
        return lines
    where = f" t={divergence.t:.3f}s" if divergence.t is not None else ""
    kind = f" kind={divergence.kind}" if divergence.kind is not None else ""
    if divergence.index >= 0:
        lines.append(
            f"first divergence at event [{divergence.index}]{where}{kind}"
        )
    else:
        lines.append("results diverge")
    lines.append(f"  field: {divergence.field}")
    lines.append(f"  {label_a}: {divergence.a!r}")
    lines.append(f"  {label_b}: {divergence.b!r}")
    return lines
