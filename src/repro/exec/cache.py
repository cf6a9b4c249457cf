"""The content-hash-keyed run memo cache.

Keys are :meth:`RunSpec.digest` values, so any two sweeps that describe
the same run — the shared uncapped baseline, a duplicated grid point, a
re-executed benchmark — hit the same entry regardless of who asks.
The in-memory layer is always on; pass ``cache_dir`` to add an on-disk
layer that survives processes (invalidate it by deleting the directory;
digests also embed a schema version, so stale entries after an
incompatible change are ignored, not mis-read).

The disk layer holds two kinds of entries: JSON results (one
``<digest>.json`` per run) and opaque binary blobs (``<digest>.bin`` —
pickled simulation checkpoints from :mod:`repro.exec.incremental`).
Checkpoints make unbounded growth a real problem, so the disk layer is
bounded: ``max_disk_bytes`` caps the total footprint with
least-recently-used eviction (access order is tracked per process and
seeded from file mtimes on startup), and the evict/byte counters are
part of :attr:`stats`.

A result entry is the log form of
:func:`~repro.exec.codec.result_to_dict` — the result's one serve log,
holding each latency once — with its three arrays packed as base64 of
little-endian bytes: ``serve_log.latencies`` as ``{"f64": "…"}``,
``serve_log.codes`` as ``{"u8": "…"}`` (wider codes as ``u16`` or
``u32``), and ``power_series.values`` as ``{"f64": "…"}``. A load
decodes them with ``np.frombuffer`` instead of parsing decimal text.
The round trip is exact to the bit, and nothing is unpickled or
executed. List-form entries of schemas 5 and 6 still load, with their
latency lists packed or as plain JSON lists. An entry that is corrupt,
truncated, vanished, unreadable or inconsistent is a miss, never an
exception.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.cluster.metrics import SimulationResult
from repro.errors import ConfigurationError
from repro.exec.codec import result_from_dict, result_to_dict


#: Packed-array tag -> dtype of its little-endian bytes.
_PACKED = {"f64": "<f8", "u8": "<u1", "u16": "<u2", "u32": "<u4"}


def _pack(values: np.ndarray) -> Dict[str, str]:
    tag = f"{values.dtype.kind}{8 * values.dtype.itemsize}"
    raw = values.astype(_PACKED[tag], copy=False).tobytes()
    return {tag: base64.b64encode(raw).decode("ascii")}


def _unpack(field: Any) -> Union[list, np.ndarray]:
    """Decode one packed array; a plain JSON list passes through."""
    if isinstance(field, list):
        return field
    if not isinstance(field, dict):
        raise TypeError(f"packed array field is a {type(field).__name__}")
    (tag, text), = field.items()
    raw = base64.b64decode(text, validate=True)
    dtype = _PACKED[tag]
    # frombuffer gives a read-only view of ``raw``; astype copies it into
    # a writable native-endian array like a freshly simulated one.
    return np.frombuffer(raw, dtype=dtype).astype(dtype[1:])


def _pack_arrays(data: Dict[str, Any]) -> Dict[str, Any]:
    """Pack a log-form result's arrays in place (see module doc)."""
    log = data["serve_log"]
    log["latencies"] = _pack(log["latencies"])
    log["codes"] = _pack(log["codes"])
    series = data["power_series"]
    series["values"] = _pack(series["values"])
    return data


def _unpack_arrays(data: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`_pack_arrays`, in place; also unpacks the
    latency lists of a list-form entry."""
    if "serve_log" in data:
        log = data["serve_log"]
        log["latencies"] = _unpack(log["latencies"])
        log["codes"] = _unpack(log["codes"])
    else:
        for group in ("per_priority", "per_workload"):
            for metrics in data[group].values():
                metrics["latencies"] = _unpack(metrics["latencies"])
    series = data["power_series"]
    series["values"] = _unpack(series["values"])
    return data


class RunCache:
    """Two-layer (memory + optional bounded disk) run memo cache.

    Attributes:
        cache_dir: On-disk layer location, or ``None`` for memory-only.
        max_disk_bytes: Disk-layer byte budget (``None`` = unbounded).
            Writing an entry that would exceed it evicts
        least-recently-used entries first; an entry larger than the
            whole budget is simply not written to disk.
        hits: Lookups answered from memory.
        disk_hits: Lookups answered from disk (then promoted to memory).
        misses: Lookups that found nothing.
        stores: Results written into the cache.
        evictions: Disk entries removed to respect ``max_disk_bytes``.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        max_disk_bytes: Optional[int] = None,
    ) -> None:
        if max_disk_bytes is not None and max_disk_bytes <= 0:
            raise ConfigurationError("max_disk_bytes must be positive")
        self._memory: Dict[str, SimulationResult] = {}
        self._blobs: Dict[str, bytes] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        # LRU bookkeeping for the disk layer: path -> size, in
        # least-recently-used-first order (dict preserves insertion
        # order; touches re-insert at the end).
        self._disk_lru: Dict[Path, int] = {}
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            # Seed the LRU with whatever a previous process left behind,
            # oldest-modified first, so a fresh process still evicts the
            # stalest entries.
            entries = []
            for path in self.cache_dir.iterdir():
                if path.suffix in (".json", ".bin"):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, path, stat.st_size))
            for _mtime, path, size in sorted(entries, key=lambda e: e[0]):
                self._disk_lru[path] = size

    def _path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{digest}.json"

    def _blob_path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{digest}.bin"

    # ------------------------------------------------------------------
    # Disk-layer LRU accounting
    # ------------------------------------------------------------------
    @property
    def disk_bytes(self) -> int:
        """Current tracked disk-layer footprint in bytes."""
        return sum(self._disk_lru.values())

    def _touch(self, path: Path, size: int) -> None:
        self._disk_lru.pop(path, None)
        self._disk_lru[path] = size

    def _touch_if_tracked(self, path: Path) -> None:
        """Refresh recency for a memory-layer hit backed by a disk file."""
        size = self._disk_lru.get(path)
        if size is not None:
            self._touch(path, size)

    def _forget(self, path: Path) -> None:
        self._disk_lru.pop(path, None)

    def _write_bounded(self, path: Path, data: bytes) -> None:
        """Atomically write one disk entry, evicting LRU to fit."""
        budget = self.max_disk_bytes
        if budget is not None:
            if len(data) > budget:
                # Larger than the whole budget: keep it in memory only.
                self._forget(path)
                path.unlink(missing_ok=True)
                return
            self._forget(path)  # overwrite does not evict itself
            while self._disk_lru and self.disk_bytes + len(data) > budget:
                victim, _size = next(iter(self._disk_lru.items()))
                self._disk_lru.pop(victim)
                victim.unlink(missing_ok=True)
                self.evictions += 1
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        self._touch(path, len(data))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[SimulationResult]:
        """Look a digest up; ``None`` on a miss."""
        result = self._memory.get(digest)
        if result is not None:
            self.hits += 1
            if self.cache_dir is not None:
                self._touch_if_tracked(self._path(digest))
            return result
        if self.cache_dir is not None:
            path = self._path(digest)
            try:
                data = path.read_bytes()
                result = result_from_dict(_unpack_arrays(json.loads(data)))
            except (OSError, ConfigurationError, ValueError, KeyError,
                    TypeError, AttributeError):
                result = None  # absent/stale/corrupt entry: a miss
            if result is not None:
                self._memory[digest] = result
                self._touch(path, len(data))
                self.disk_hits += 1
                return result
        self.misses += 1
        return None

    def put(self, digest: str, result: SimulationResult) -> None:
        """Store a result under its digest (memory, then disk if on)."""
        self._memory[digest] = result
        self.stores += 1
        if self.cache_dir is not None:
            self._write_bounded(
                self._path(digest),
                json.dumps(_pack_arrays(
                    result_to_dict(result, serve_log=True)
                )).encode(),
            )

    # ------------------------------------------------------------------
    # Blobs (opaque bytes: checkpoint snapshots, tapes)
    # ------------------------------------------------------------------
    def get_blob(self, digest: str) -> Optional[bytes]:
        """Look an opaque blob up; ``None`` on a miss."""
        blob = self._blobs.get(digest)
        if blob is not None:
            self.hits += 1
            if self.cache_dir is not None:
                self._touch_if_tracked(self._blob_path(digest))
            return blob
        if self.cache_dir is not None:
            path = self._blob_path(digest)
            try:
                blob = path.read_bytes()
            except OSError:
                blob = None  # absent or unreadable: a miss
            if blob is not None:
                self._blobs[digest] = blob
                self._touch(path, len(blob))
                self.disk_hits += 1
                return blob
        self.misses += 1
        return None

    def put_blob(self, digest: str, blob: bytes) -> None:
        """Store opaque bytes under a digest (memory, then disk if on)."""
        self._blobs[digest] = blob
        self.stores += 1
        if self.cache_dir is not None:
            self._write_bounded(self._blob_path(digest), blob)

    # ------------------------------------------------------------------
    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer (and the disk layer when ``disk=True``)."""
        self._memory.clear()
        self._blobs.clear()
        if disk and self.cache_dir is not None:
            for path in self.cache_dir.glob("*.json"):
                path.unlink()
                self._forget(path)
            for path in self.cache_dir.glob("*.bin"):
                path.unlink()
                self._forget(path)

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, digest: str) -> bool:
        return digest in self._memory

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss/store/evict counters as a plain dict."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "entries": len(self._memory),
            "blobs": len(self._blobs),
            "disk_bytes": self.disk_bytes,
        }
