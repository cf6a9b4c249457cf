"""Per-run trace collection: spool, sample and roll up.

Some execution paths — :class:`~repro.exec.engine.SweepEngine` pool
workers and incremental resumes — run simulations the caller's recorder
never sees directly: pool workers execute whole runs in forked
processes, and resumed cores replay from checkpoints that deliberately
exclude the recorder. This module makes those paths observable without
changing a single simulated bit:

* **per-run spooling** — every simulated run records into its own
  :class:`~repro.obs.recorder.JsonlRecorder` segment, keyed by the run
  digest, which the parent reads back afterwards;
* **overhead bounding** — :class:`SamplingRecorder` keeps a
  deterministic hash-selected fraction of each kind (sha256 of the
  event identity; no RNG state, so the sampled trace is an exact
  subsequence of the full trace) with an exact ``dropped_by_kind``
  census, and :class:`RollupRecorder` folds high-rate kinds into
  fixed-epoch aggregate events;
* **engine fan-out** — :class:`TraceCollector` hands pool workers
  picklable :class:`TraceJob` recipes (file handles do not cross fork
  boundaries) and reads the per-digest segments back in the parent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.obs.recorder import (
    JsonlRecorder,
    TraceEvent,
    TraceRecorder,
    read_jsonl,
)

__all__ = [
    "RollupRecorder",
    "SamplingRecorder",
    "TraceCollector",
    "TraceJob",
    "hash_fraction",
]


# ----------------------------------------------------------------------
# Overhead-bounded recording
# ----------------------------------------------------------------------
_sha256 = hashlib.sha256
_from_bytes = int.from_bytes


def hash_fraction(event: TraceEvent) -> float:
    """A deterministic ``[0, 1)`` fraction of an event's identity.

    sha256 over the event's compact identity — its kind plus the
    fields that make instances of a kind distinct (``t``,
    ``request_id``, ``server``). No RNG state, no emission-order or
    key-order dependence, so the keep/drop decision for an event is a
    pure function of its payload and a sampled trace is an exact
    subsequence of the full trace. The identity is deliberately small:
    sampling is applied to the highest-rate kinds, and hashing a short
    string instead of the full serialized payload keeps the per-event
    cost within the recording overhead budget.
    """
    ident = "%s|%r|%r|%r" % (
        event.get("kind"), event.get("t"),
        event.get("request_id"), event.get("server"),
    )
    digest = _sha256(ident.encode("utf-8")).digest()
    return _from_bytes(digest[:8], "big") / 2.0 ** 64


def _validate_rate(rate: float, label: str) -> float:
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(
            f"{label} must be within [0, 1], got {rate}"
        )
    return rate


class SamplingRecorder(TraceRecorder):
    """Deterministic hash-based per-kind sampling with an exact census.

    An event of kind ``k`` is kept iff its rate is 1.0 or
    :func:`hash_fraction` of the event falls below the rate; dropped
    events are counted exactly in ``dropped_by_kind``. The census is
    surfaced in the observability snapshot under ``trace_sampling``.

    Attributes:
        rates: Per-kind keep fraction; kinds not listed use
            ``default_rate``.
        kept: Events forwarded to the inner recorder.
        dropped_by_kind: Exact count of sampled-out events per kind.
    """

    def __init__(
        self,
        inner: TraceRecorder,
        rates: Optional[Mapping[str, float]] = None,
        default_rate: float = 1.0,
    ) -> None:
        self.inner = inner
        self.rates = {
            str(kind): _validate_rate(rate, f"sampling rate for {kind!r}")
            for kind, rate in (rates or {}).items()
        }
        self.default_rate = _validate_rate(default_rate, "default_rate")
        self.kept = 0
        self.dropped_by_kind: Dict[str, int] = {}

    @property
    def dropped(self) -> int:
        """Total sampled-out events across all kinds."""
        return sum(self.dropped_by_kind.values())

    def emit(self, event: TraceEvent) -> None:
        kind = event.get("kind")
        if not isinstance(kind, str):
            kind = str(kind)
        rate = self.rates.get(kind, self.default_rate)
        if rate < 1.0:
            # rate 0.0 drops everything — no need to hash first.
            if rate <= 0.0 or hash_fraction(event) >= rate:
                self.dropped_by_kind[kind] = \
                    self.dropped_by_kind.get(kind, 0) + 1
                return
        self.kept += 1
        self.inner.emit(event)

    def wants(self, kind: str) -> bool:
        # A partially sampled kind must be seen: the keep/drop census
        # is exact, so dropped events are still counted here.
        rate = self.rates.get(kind, self.default_rate)
        if rate >= 1.0:
            return self.inner.wants(kind)
        return True

    def close(self) -> None:
        self.inner.close()

    def finalize(self, t_end: float) -> None:
        self.inner.finalize(t_end)

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        snapshot = dict(self.inner.observability_snapshot() or {})
        snapshot["trace_sampling"] = {
            "kept": self.kept,
            "dropped": self.dropped,
            "dropped_by_kind": {
                kind: count
                for kind, count in sorted(self.dropped_by_kind.items())
            },
        }
        return snapshot


class RollupRecorder(TraceRecorder):
    """Folds high-rate kinds into fixed-epoch aggregate events.

    Events whose kind is in ``kinds`` are absorbed into one ``rollup``
    event per ``(kind, epoch)``: an exact count plus sum/min/max of
    every numeric field. Other kinds pass through untouched. Rollups
    flush in deterministic ``(epoch, kind)`` order as soon as the
    (time-ordered) stream moves past their epoch, and the remainder
    flushes at :meth:`finalize` — so the inner sink still receives a
    time-ordered stream.
    """

    def __init__(
        self,
        inner: TraceRecorder,
        kinds: Iterable[str],
        epoch_s: float = 60.0,
    ) -> None:
        self.inner = inner
        self.kinds = frozenset(str(kind) for kind in kinds)
        if not self.kinds:
            raise ConfigurationError("rollup kinds cannot be empty")
        if epoch_s <= 0.0:
            raise ConfigurationError("rollup epoch_s must be positive")
        self.epoch_s = float(epoch_s)
        self.rolled_by_kind: Dict[str, int] = {}
        self._open: Dict[Tuple[int, str], Dict[str, Any]] = {}
        self._min_open_epoch: Optional[int] = None
        # One-entry accumulator cache: events of a rolled kind arrive
        # in long same-epoch streaks, so the common case skips the
        # tuple-keyed lookup entirely.
        self._last_epoch: Optional[int] = None
        self._last_kind: Optional[str] = None
        self._last_acc: Optional[Dict[str, Any]] = None

    def emit(self, event: TraceEvent) -> None:
        kind = event.get("kind")
        t = event.get("t")
        timed = isinstance(t, (int, float)) and not isinstance(t, bool)
        if timed:
            epoch = int(t // self.epoch_s)
            # Any timed event moving past an open epoch flushes it —
            # rolled or not — so rollups always precede later-epoch
            # events at the inner sink. The min-open-epoch check keeps
            # the common case (nothing due) to one comparison.
            if self._min_open_epoch is not None \
                    and epoch > self._min_open_epoch:
                self._flush_before(epoch)
        if not timed or kind not in self.kinds:
            self.inner.emit(event)
            return
        if epoch == self._last_epoch and kind == self._last_kind:
            acc = self._last_acc
        else:
            acc = self._open.setdefault(
                (epoch, kind), {"n": 0, "fields": {}}
            )
            self._last_epoch = epoch
            self._last_kind = kind
            self._last_acc = acc
            if self._min_open_epoch is None \
                    or epoch < self._min_open_epoch:
                self._min_open_epoch = epoch
        acc["n"] += 1
        self.rolled_by_kind[kind] = self.rolled_by_kind.get(kind, 0) + 1
        fields = acc["fields"]
        for name, value in event.items():
            cls = value.__class__
            if (cls is not float and cls is not int) or name == "t":
                continue
            stats = fields.get(name)
            if stats is None:
                fields[name] = {"sum": value, "min": value, "max": value}
            else:
                stats["sum"] += value
                stats["min"] = min(stats["min"], value)
                stats["max"] = max(stats["max"], value)

    def _render(self, key: Tuple[int, str]) -> TraceEvent:
        epoch, kind = key
        acc = self._open[key]
        return {
            "t": epoch * self.epoch_s,
            "kind": "rollup",
            "source": kind,
            "epoch_s": self.epoch_s,
            "n": acc["n"],
            "fields": {
                name: acc["fields"][name]
                for name in sorted(acc["fields"])
            },
        }

    def _flush_before(self, epoch: Optional[int]) -> None:
        due = sorted(
            key for key in self._open
            if epoch is None or key[0] < epoch
        )
        for key in due:
            self.inner.emit(self._render(key))
            del self._open[key]
        self._min_open_epoch = (
            min(key[0] for key in self._open) if self._open else None
        )
        # The cached accumulator may just have been flushed.
        self._last_epoch = None
        self._last_kind = None
        self._last_acc = None

    def wants(self, kind: str) -> bool:
        # Rolled-up kinds feed the epoch aggregates.
        return kind in self.kinds or self.inner.wants(kind)

    def close(self) -> None:
        self.inner.close()

    def finalize(self, t_end: float) -> None:
        self._flush_before(None)
        self.inner.finalize(t_end)

    def observability_snapshot(self) -> Optional[Dict[str, Any]]:
        snapshot = dict(self.inner.observability_snapshot() or {})
        snapshot["trace_rollup"] = {
            "rolled_up": sum(self.rolled_by_kind.values()),
            "by_kind": {
                kind: count
                for kind, count in sorted(self.rolled_by_kind.items())
            },
        }
        return snapshot


# ----------------------------------------------------------------------
# Engine-level collection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceJob:
    """A picklable recipe for one per-run spool recorder.

    Pool workers receive the recipe and build the recorder chain
    locally — file handles do not cross fork boundaries, and the
    :class:`~repro.obs.recorder.JsonlRecorder` truncates its segment on
    open, so a retried run after a worker crash overwrites the partial
    segment cleanly.
    """

    path: str
    kinds: Optional[Tuple[str, ...]] = None
    sample: Optional[Tuple[Tuple[str, float], ...]] = None
    default_rate: float = 1.0
    rollup_kinds: Optional[Tuple[str, ...]] = None
    rollup_epoch_s: float = 60.0

    def open(self) -> TraceRecorder:
        """Build the recorder chain: sampling -> rollup -> JSONL."""
        recorder: TraceRecorder = JsonlRecorder(self.path, kinds=self.kinds)
        if self.rollup_kinds:
            recorder = RollupRecorder(
                recorder, self.rollup_kinds, self.rollup_epoch_s
            )
        if self.sample is not None or self.default_rate < 1.0:
            recorder = SamplingRecorder(
                recorder, dict(self.sample or ()), self.default_rate
            )
        return recorder


class TraceCollector:
    """Per-run trace spool for engine-executed sweeps.

    One JSONL segment per run digest under ``directory``. The
    :class:`~repro.exec.engine.SweepEngine` asks for a :meth:`job` per
    simulated spec — on the serial path, in every pool worker, and on
    the retry/quarantine path — and the parent reads the artifacts
    back via :meth:`events`. Sampling/rollup settings apply uniformly
    to every segment, so overhead bounds hold across the whole sweep.

    Args:
        directory: Segment directory (created if absent).
        kinds: Optional kind filter applied at the JSONL sink.
        sample: Per-kind sampling rates (see :class:`SamplingRecorder`).
        default_rate: Keep fraction for kinds not listed in ``sample``.
        rollup_kinds: Kinds folded into fixed-epoch aggregates.
        rollup_epoch_s: Aggregation epoch for ``rollup_kinds``.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        kinds: Optional[Iterable[str]] = None,
        sample: Optional[Mapping[str, float]] = None,
        default_rate: float = 1.0,
        rollup_kinds: Optional[Iterable[str]] = None,
        rollup_epoch_s: float = 60.0,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.kinds = tuple(sorted(kinds)) if kinds is not None else None
        if self.kinds is not None and not self.kinds:
            raise ConfigurationError("kinds filter cannot be empty")
        self.sample = tuple(
            (str(kind), _validate_rate(rate, f"sampling rate for {kind!r}"))
            for kind, rate in sorted((sample or {}).items())
        ) if sample is not None else None
        self.default_rate = _validate_rate(default_rate, "default_rate")
        self.rollup_kinds = (
            tuple(sorted(str(k) for k in rollup_kinds))
            if rollup_kinds is not None else None
        )
        if self.rollup_kinds is not None and not self.rollup_kinds:
            raise ConfigurationError("rollup kinds cannot be empty")
        if rollup_epoch_s <= 0.0:
            raise ConfigurationError("rollup epoch_s must be positive")
        self.rollup_epoch_s = float(rollup_epoch_s)

    def segment_path(self, digest: str) -> Path:
        """The JSONL segment file for one run digest."""
        return self.directory / f"{digest}.jsonl"

    def has(self, digest: str) -> bool:
        """Whether a segment for this digest has been spooled."""
        return self.segment_path(digest).exists()

    def job(self, digest: str) -> TraceJob:
        """The picklable spool recipe for one run."""
        return TraceJob(
            path=str(self.segment_path(digest)),
            kinds=self.kinds,
            sample=self.sample,
            default_rate=self.default_rate,
            rollup_kinds=self.rollup_kinds,
            rollup_epoch_s=self.rollup_epoch_s,
        )

    def events(self, digest: str) -> List[TraceEvent]:
        """Load one run's spooled trace.

        Raises:
            ConfigurationError: If no segment exists for the digest.
        """
        path = self.segment_path(digest)
        if not path.exists():
            raise ConfigurationError(f"no trace segment for {digest!r}")
        return read_jsonl(str(path))

    def digests(self) -> List[str]:
        """Every digest with a spooled segment, sorted."""
        return sorted(path.stem for path in self.directory.glob("*.jsonl"))
