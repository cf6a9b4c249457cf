"""The cross-run experiment ledger: an append-only JSONL run journal.

PRs 3-5 made every *single* run fully observable — traces, metrics,
spans, attribution — but each run's story still ended when its process
exited. The ledger is the memory across runs: every execution the sweep
engine performs (including cache hits, incremental resumes, retries,
and quarantines) can append one schema-versioned JSON line capturing

* *what* ran — the spec's content digest, its configuration+trace
  family digest, the trace digest, policy name and thresholds, seed,
  duration, and cluster size;
* *how* it ran — wall time, executing worker pid, provenance flags
  (cache hit / incremental resume / retries / quarantine), and the worker's ``resource.getrusage`` footprint
  (max RSS, CPU time) plumbed back through the process pool;
* *what it produced* — the headline result metrics (energy, peak
  utilization, brakes, caps, served/dropped, over-budget exposure,
  incidents, trips);
* *where* it ran — an environment stamp (python/numpy versions,
  platform, codec ``SCHEMA_VERSION``, spec ``DIGEST_VERSION``).

Like every recorder before it, the ledger is **off by default** and
purely observational: it never touches simulator state or RNG streams,
so a ledgered run is bit-identical to an unledgered one (asserted on
the six reference configs). The file is opened in append mode and each
entry is one ``write`` call, so concurrent sweeps interleave whole
lines and a crash never leaves a torn record.

:mod:`repro.obs.regress` diffs ledger entries against committed
baselines; :mod:`repro.obs.dashboard` renders ledger history as
sparklines; ``examples/trace_inspect.py ledger`` prints the journal.
"""

from __future__ import annotations

import json
import platform
import resource
from typing import IO, Any, Dict, List, Optional, Tuple

from repro.cluster.metrics import SimulationResult
from repro.errors import ConfigurationError
from repro.workloads.spec import Priority

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "ExperimentLedger",
    "environment_stamp",
    "headline_metrics",
    "read_ledger",
    "rusage_snapshot",
]

#: Bump when the entry layout changes incompatibly. Readers reject
#: newer-than-known schemas instead of misreading them.
LEDGER_SCHEMA_VERSION = 1


def environment_stamp() -> Dict[str, Any]:
    """Where and with what a run executed (embedded in every entry).

    Captures the interpreter and numpy versions, the platform string,
    and the repo's two compatibility dials: the result codec
    ``SCHEMA_VERSION`` and the spec ``DIGEST_VERSION``. Two ledger
    entries with different stamps are not comparable bit-for-bit —
    the regression sentinel checks this before diffing metrics.
    """
    import numpy

    # Imported lazily: repro.obs must stay importable without the exec
    # layer (the same rule repro.obs.diff follows).
    from repro.exec.codec import SCHEMA_VERSION
    from repro.exec.runspec import DIGEST_VERSION

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "schema_version": SCHEMA_VERSION,
        "digest_version": DIGEST_VERSION,
    }


def rusage_snapshot() -> Dict[str, float]:
    """This process's resource footprint (``RUSAGE_SELF``).

    ``max_rss_kb`` is the high-water mark in kilobytes (Linux units;
    macOS reports bytes — the stamp records what the kernel said).
    CPU times are cumulative for the process, so per-run deltas are
    the caller's job (:func:`rusage_delta`).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "max_rss_kb": float(usage.ru_maxrss),
        "cpu_user_s": float(usage.ru_utime),
        "cpu_system_s": float(usage.ru_stime),
    }


def rusage_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Per-run CPU deltas; max RSS stays the (monotone) high-water mark."""
    return {
        "max_rss_kb": after["max_rss_kb"],
        "cpu_user_s": after["cpu_user_s"] - before["cpu_user_s"],
        "cpu_system_s": after["cpu_system_s"] - before["cpu_system_s"],
    }


def headline_metrics(result: SimulationResult) -> Dict[str, Any]:
    """The result metrics worth tracking run over run.

    Deterministic for a deterministic simulation — these are the
    exact-compare section of a ledger entry (wall time and rusage are
    the noisy section). Counts are per priority tier; the optional
    report sections degrade to zeros when the run had no fault plan,
    no protection hierarchy, or no live alert engine.
    """
    observability = result.observability or {}
    incidents = observability.get("incidents") or []
    metrics: Dict[str, Any] = {
        "total_energy_j": result.total_energy_j,
        "peak_utilization": result.peak_utilization,
        "mean_utilization": result.mean_utilization,
        "power_brake_events": result.power_brake_events,
        "capping_actions": result.capping_actions,
        "served": {
            priority.value: result.per_priority[priority].served
            for priority in Priority
            if priority in result.per_priority
        },
        "dropped": {
            priority.value: result.per_priority[priority].dropped
            for priority in Priority
            if priority in result.per_priority
        },
        "over_budget_s": (
            result.robustness.time_at_risk_s
            if result.robustness is not None else 0.0
        ),
        "incidents": len(incidents),
        "trips": (
            result.powerfail.trips if result.powerfail is not None else 0
        ),
    }
    return metrics


def _policy_payload(policy: Any) -> Tuple[str, Optional[Dict[str, Any]]]:
    """``(name, thresholds-dict-or-None)`` for a PolicySpec."""
    thresholds = getattr(policy, "thresholds", None)
    if thresholds is None:
        return policy.name, None
    from dataclasses import fields

    return policy.name, {
        f.name: getattr(thresholds, f.name) for f in fields(thresholds)
    }


def _trace_digest(spec: Any) -> str:
    """Content digest of the request trace a spec replays."""
    import hashlib

    from repro.exec.runspec import _canonical

    payload = json.dumps(
        {"trace_key": _canonical(spec.trace_key())},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ExperimentLedger:
    """Append-only journal of executed runs.

    Attributes:
        path: Destination JSONL file (opened in append mode — an
            existing ledger grows; it is never truncated), or ``None``
            for an in-memory ledger.
        entries: Every entry recorded *by this instance*, in order
            (a file-backed ledger's previous lives are on disk, not
            here — use :func:`read_ledger` for the full history).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = None if path is None else str(path)
        self.entries: List[Dict[str, Any]] = []
        self._handle: Optional[IO[str]] = (
            open(self.path, "a", encoding="utf-8")
            if self.path is not None else None
        )
        self._env = environment_stamp()

    def record(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Append one raw entry (stamped with the schema version)."""
        if self.path is not None and self._handle is None:
            raise ConfigurationError(
                f"ExperimentLedger({self.path!r}) is closed"
            )
        stamped = {"schema": LEDGER_SCHEMA_VERSION, **entry}
        if self._handle is not None:
            # One write call per entry: serialization happens (and can
            # fail) before anything touches the file, and appends of
            # whole lines interleave safely across processes.
            self._handle.write(json.dumps(stamped, sort_keys=True) + "\n")
            self._handle.flush()
        self.entries.append(stamped)
        return stamped

    def record_run(
        self,
        spec: Any,
        result: SimulationResult,
        *,
        wall_s: float = 0.0,
        worker: Optional[int] = None,
        rusage: Optional[Dict[str, float]] = None,
        cache_hit: bool = False,
        incremental_resumed: bool = False,
        incremental_reused: bool = False,
        retries: int = 0,
        quarantined: bool = False,
    ) -> Dict[str, Any]:
        """Append the standard entry for one executed (or recalled) run.

        ``spec`` is a :class:`~repro.exec.runspec.RunSpec`; the imports
        are lazy so :mod:`repro.obs` keeps its no-exec-dependency rule.
        """
        from repro.exec.incremental import family_digest

        policy_name, thresholds = _policy_payload(spec.policy)
        entry = {
            "kind": "run",
            "digest": spec.digest(),
            "family": family_digest(spec),
            "trace": _trace_digest(spec),
            "policy": policy_name,
            "thresholds": thresholds,
            "seed": spec.config.seed,
            "n_servers": spec.config.n_servers,
            "duration_s": spec.duration_s,
            "wall_s": wall_s,
            "worker": worker,
            "provenance": {
                "cache_hit": cache_hit,
                "incremental_resumed": incremental_resumed,
                "incremental_reused": incremental_reused,
                "retries": retries,
                "quarantined": quarantined,
            },
            "rusage": rusage,
            "metrics": headline_metrics(result),
            "env": self._env,
        }
        return self.record(entry)

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ExperimentLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.entries)


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """Load a ledger file, validating the schema of every entry.

    Raises:
        ConfigurationError: If a line is not a JSON object or carries a
            schema version newer than this reader understands.
    """
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: invalid ledger line: {exc}"
                ) from None
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"{path}:{lineno}: ledger entries must be JSON objects"
                )
            schema = entry.get("schema")
            if not isinstance(schema, int) \
                    or schema > LEDGER_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"{path}:{lineno}: ledger schema {schema!r} is newer "
                    f"than supported ({LEDGER_SCHEMA_VERSION})"
                )
            entries.append(entry)
    return entries
