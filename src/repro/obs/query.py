"""Trace query engine: filter, project, aggregate, and join.

A small relational layer over trace event streams (lists of plain
dicts, as produced by every :class:`~repro.obs.recorder.TraceRecorder`).
Everything here is
deterministic: output ordering is a pure function of the input events,
quantiles use linear interpolation over the sorted values, and group
rows sort by their group key — so query results feed byte-identical
dashboard renders and stable CLI output.

The same engine backs three consumers: library callers, the
``trace_inspect query`` subcommand, and the dashboard panels. Invalid query specifications raise
:class:`~repro.errors.ConfigurationError` (the CLI maps that to its
usage-error exit code).
"""

from __future__ import annotations

import re
from collections import OrderedDict, deque
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.obs.recorder import TraceEvent

__all__ = [
    "filter_events",
    "group_aggregate",
    "parse_agg",
    "project",
    "quantile",
    "span_join",
]

def filter_events(
    events: Iterable[TraceEvent],
    kinds: Optional[Iterable[str]] = None,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    server: Optional[str] = None,
    where: Optional[Mapping[str, Any]] = None,
) -> List[TraceEvent]:
    """Select events by kind, time window, server, and fields.

    The time window is half-open: ``t_min <= t < t_max``; events
    without a ``t`` are excluded whenever a time bound is given.
    ``where`` is field-equality over the event payload. Input order is
    preserved.
    """
    kind_set = None
    if kinds is not None:
        kind_set = frozenset(str(kind) for kind in kinds)
        if not kind_set:
            raise ConfigurationError("kinds filter cannot be empty")

    selected: List[TraceEvent] = []
    for event in events:
        if kind_set is not None and event.get("kind") not in kind_set:
            continue
        if t_min is not None or t_max is not None:
            t = event.get("t")
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                continue
            if t_min is not None and t < t_min:
                continue
            if t_max is not None and t >= t_max:
                continue
        if server is not None and event.get("server") != server:
            continue
        if where is not None and any(
            event.get(field) != value for field, value in where.items()
        ):
            continue
        selected.append(event)
    return selected


def project(
    events: Iterable[TraceEvent], fields: Sequence[str]
) -> List[Dict[str, Any]]:
    """Keep only the named fields of each event (missing stay absent)."""
    if not fields:
        raise ConfigurationError("projection fields cannot be empty")
    names = [str(field) for field in fields]
    return [
        {name: event[name] for name in names if name in event}
        for event in events
    ]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of the values (q in [0, 1])."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    if not values:
        raise ConfigurationError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


_QUANTILE_SPEC = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


def parse_agg(spec: str) -> Tuple[str, Optional[str], Optional[float]]:
    """Parse an aggregation spec string.

    ``"count"`` needs no field; ``"sum:f"``/``"mean:f"``/``"min:f"``/
    ``"max:f"`` aggregate numeric field ``f``; ``"pNN:f"`` (e.g.
    ``p95:latency_s``) is the NN-th percentile. Returns
    ``(op, field, q)``; invalid specs raise
    :class:`~repro.errors.ConfigurationError`.
    """
    spec = str(spec).strip()
    if spec == "count":
        return ("count", None, None)
    op, sep, field = spec.partition(":")
    if not sep or not field:
        raise ConfigurationError(
            f"aggregation {spec!r} needs a field (e.g. 'mean:latency_s')"
        )
    if op in ("sum", "mean", "min", "max"):
        return (op, field, None)
    match = _QUANTILE_SPEC.match(op)
    if match is not None:
        return ("quantile", field, float(match.group(1)) / 100.0)
    raise ConfigurationError(
        f"unknown aggregation {op!r}; expected count, sum, mean, min, "
        f"max, or pNN"
    )


def _numeric_values(
    group: Sequence[TraceEvent], field: str
) -> List[float]:
    values = []
    for event in group:
        value = event.get(field)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values.append(float(value))
    return values


def _apply_agg(
    group: Sequence[TraceEvent],
    op: str,
    field: Optional[str],
    q: Optional[float],
) -> Optional[float]:
    if op == "count":
        return len(group)
    assert field is not None
    values = _numeric_values(group, field)
    if not values:
        return None
    if op == "sum":
        return sum(values)
    if op == "mean":
        return sum(values) / len(values)
    if op == "min":
        return min(values)
    if op == "max":
        return max(values)
    assert op == "quantile" and q is not None
    return quantile(values, q)


def group_aggregate(
    events: Iterable[TraceEvent],
    by: Union[str, Sequence[str]],
    aggs: Sequence[str] = ("count",),
) -> List[Dict[str, Any]]:
    """Group events by field values and aggregate each group.

    Args:
        events: The event stream.
        by: A field name or sequence of field names; events missing a
            field group under ``None``.
        aggs: Aggregation spec strings (see :func:`parse_agg`); each
            spec becomes a column named by the spec itself.

    Returns:
        One row per group — the group-by fields plus one column per
        spec — deterministically sorted by group key (``None`` last).
        Non-count aggregations over a group with no numeric values of
        the field yield ``None``.
    """
    by_fields = [by] if isinstance(by, str) else [str(f) for f in by]
    if not by_fields:
        raise ConfigurationError("group-by fields cannot be empty")
    if not aggs:
        raise ConfigurationError("aggregations cannot be empty")
    parsed = [(str(spec), parse_agg(spec)) for spec in aggs]

    groups: "OrderedDict[Tuple[Any, ...], List[TraceEvent]]" = \
        OrderedDict()
    for event in events:
        key = tuple(event.get(field) for field in by_fields)
        groups.setdefault(key, []).append(event)

    def sort_key(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple((value is None, str(value)) for value in key)

    rows: List[Dict[str, Any]] = []
    for key in sorted(groups, key=sort_key):
        row: Dict[str, Any] = dict(zip(by_fields, key))
        for spec, (op, field, q) in parsed:
            row[spec] = _apply_agg(groups[key], op, field, q)
        rows.append(row)
    return rows


def span_join(
    events: Iterable[TraceEvent],
    open_kind: str,
    close_kind: str,
    key: Sequence[str] = (),
) -> List[Dict[str, Any]]:
    """Pair open/close events sharing key fields into span rows.

    Each close event closes the earliest still-open event with the
    same key-field values (FIFO, matching how the simulator's own
    paired events nest). Rows appear in open order and carry the key
    fields, ``t_start``/``t_end``/``duration_s`` (``None`` while
    unclosed), and the full ``open``/``close`` events for drill-down.
    """
    open_kind = str(open_kind)
    close_kind = str(close_kind)
    if open_kind == close_kind:
        raise ConfigurationError(
            "span open and close kinds must differ"
        )
    key_fields = [str(field) for field in key]
    rows: List[Dict[str, Any]] = []
    pending: Dict[Tuple[Any, ...], "deque[Dict[str, Any]]"] = {}
    for event in events:
        kind = event.get("kind")
        if kind == open_kind:
            row: Dict[str, Any] = {
                field: event.get(field) for field in key_fields
            }
            row.update(
                t_start=event.get("t"), t_end=None, duration_s=None,
                open=event, close=None,
            )
            rows.append(row)
            group_key = tuple(event.get(f) for f in key_fields)
            pending.setdefault(group_key, deque()).append(row)
        elif kind == close_kind:
            group_key = tuple(event.get(f) for f in key_fields)
            queue = pending.get(group_key)
            if not queue:
                continue
            row = queue.popleft()
            row["t_end"] = event.get("t")
            row["close"] = event
            if isinstance(row["t_start"], (int, float)) \
                    and isinstance(row["t_end"], (int, float)):
                row["duration_s"] = \
                    float(row["t_end"]) - float(row["t_start"])
    return rows
