"""Per-run trace collection: one spooled JSONL segment per run.

:class:`~repro.exec.engine.SweepEngine` pool workers run simulations
the caller's recorder never sees directly: they execute whole runs in
forked processes. This module makes every engine path observable
without changing a single simulated bit (a recorded run under
``incremental=True`` runs cold, so checkpoints never need a
recorder):

* **per-run spooling** — every simulated run records into its own
  :class:`~repro.obs.recorder.JsonlRecorder` segment, keyed by the run
  digest, which the parent reads back afterwards;
* **overhead bounding** — the segment sink applies the collector's
  ``kinds`` filter and its deterministic per-kind hash ``sample`` (see
  :func:`~repro.obs.recorder.hash_fraction`), with an exact
  ``dropped_by_kind`` census in each run's observability;
* **engine fan-out** — :class:`TraceCollector` hands pool workers
  picklable :class:`TraceJob` recipes (file handles do not cross fork
  boundaries) and reads the per-digest segments back in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.recorder import (
    JsonlRecorder,
    TraceEvent,
    normalize_kinds,
    normalize_sample,
    read_jsonl,
)

__all__ = ["TraceCollector", "TraceJob"]


@dataclass(frozen=True)
class TraceJob:
    """A picklable recipe for one per-run spool recorder.

    Pool workers receive the recipe and build the recorder locally —
    file handles do not cross fork boundaries, and the
    :class:`~repro.obs.recorder.JsonlRecorder` truncates its segment on
    open, so a retried run after a worker crash overwrites the partial
    segment cleanly.
    """

    path: str
    kinds: Optional[Tuple[str, ...]] = None
    sample: Optional[Tuple[Tuple[str, float], ...]] = None

    def open(self) -> JsonlRecorder:
        """Open the segment sink (kind filter, then sample)."""
        return JsonlRecorder(
            self.path,
            kinds=self.kinds,
            sample=dict(self.sample) if self.sample is not None else None,
        )


class TraceCollector:
    """Per-run trace spool for engine-executed sweeps.

    One JSONL segment per run digest under ``directory``. The
    :class:`~repro.exec.engine.SweepEngine` asks for a :meth:`job` per
    simulated spec — on the serial path, in every pool worker, and on
    the retry/quarantine path — and the parent reads the artifacts
    back via :meth:`events`. The filter and sample apply uniformly to
    every segment, so overhead bounds hold across the whole sweep.

    Args:
        directory: Segment directory (created if absent).
        kinds: Optional kind filter applied at the JSONL sink.
        sample: Per-kind keep rates of kept kinds (see
            :class:`~repro.obs.recorder.JsonlRecorder`).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        kinds: Optional[Iterable[str]] = None,
        sample: Optional[Mapping[str, float]] = None,
    ) -> None:
        kind_set = normalize_kinds(kinds)
        rates = normalize_sample(sample)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.kinds = tuple(sorted(kind_set)) if kind_set is not None else None
        self.sample = (
            tuple(sorted(rates.items())) if rates is not None else None
        )

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
