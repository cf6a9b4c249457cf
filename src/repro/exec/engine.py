"""The parallel sweep executor.

:class:`SweepEngine` takes a batch of :class:`RunSpec`\\ s, answers what
it can from the memo cache, deduplicates the rest by content digest, and
fans the unique misses out over a ``ProcessPoolExecutor``. Results come
back in input order, so callers are oblivious to scheduling.

Parallel output is bit-identical to serial output by construction: every
run is an independently seeded simulation executed by the same
:func:`~repro.exec.runspec.execute_spec` code path, and result ordering
is fixed by the spec list, not by completion time. ``fork`` is used for
worker start-up (cheap, inherits warm caches); on platforms without it
the engine falls back to in-process serial execution.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.cluster.metrics import SimulationResult
from repro.errors import ConfigurationError
from repro.exec.cache import RunCache
from repro.exec.runspec import RunSpec, execute_spec
from repro.obs.collect import TraceCollector, TraceJob
from repro.obs.ledger import (
    ExperimentLedger,
    rusage_delta,
    rusage_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.incremental import IncrementalExecutor

T = TypeVar("T")
R = TypeVar("R")


def _maybe_fail_for_test(spec: RunSpec) -> None:
    """Deliberately kill or wedge this worker when a test asks for it.

    Inert unless the ``REPRO_EXEC_FAIL_SEED`` environment variable
    matches the spec's seed — the engine-robustness regression tests
    set it to simulate a worker dying (``REPRO_EXEC_FAIL_MODE=kill``,
    the default) or hanging (``=hang``) mid-sweep. With
    ``REPRO_EXEC_FAIL_ONCE=<sentinel path>`` the failure happens only
    while the sentinel file does not exist (it is created just before
    failing), so the first retry succeeds. Runs only inside pool
    workers (:func:`_pool_entry`): the quarantine path executes the
    spec without it.
    """
    seed = os.environ.get("REPRO_EXEC_FAIL_SEED")
    if seed is None or int(seed) != spec.config.seed:
        return
    sentinel = os.environ.get("REPRO_EXEC_FAIL_ONCE")
    if sentinel:
        if os.path.exists(sentinel):
            return
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("failed\n")
    if os.environ.get("REPRO_EXEC_FAIL_MODE", "kill") == "hang":
        time.sleep(3600.0)
    os._exit(1)


#: What one timed execution returns: the result, its wall time, the
#: executing process's pid and its ``getrusage`` footprint.
_Timed = Tuple[SimulationResult, float, int, Dict[str, float]]


def _execute_timed(
    execute: Callable[..., SimulationResult],
    spec: RunSpec,
    job: Optional[TraceJob],
) -> _Timed:
    """Run one spec and time it: every execution path goes through here.

    Returns the result plus the run's wall time (of
    :func:`_execute_spooled` alone), the executing process's pid, and
    its ``getrusage`` footprint (CPU-time delta across the run, max-RSS
    high-water mark), so the parent can write ledger entries for
    serial, incremental, pool and quarantine runs alike.
    """
    usage_before = rusage_snapshot()
    start = time.perf_counter()
    result = _execute_spooled(execute, spec, job)
    wall_s = time.perf_counter() - start
    usage = rusage_delta(usage_before, rusage_snapshot())
    return result, wall_s, os.getpid(), usage


def _pool_entry(spec: RunSpec, job: Optional[TraceJob]) -> _Timed:
    """Worker entry point of the process pool.

    ``job`` is the collector's spool recipe: the spool recorder is
    built (and its segment file opened) inside the worker, because file
    handles do not survive the fork boundary.
    """
    _maybe_fail_for_test(spec)
    return _execute_timed(execute_spec, spec, job)


def _execute_spooled(
    execute: Callable[..., SimulationResult],
    spec: RunSpec,
    job: Optional[TraceJob],
) -> SimulationResult:
    """Run one spec, spooling its trace when a collector job is given.

    Every recording path — serial, pool worker and quarantine — opens
    and closes its spool recorder here. ``execute`` is either
    :func:`~repro.exec.runspec.execute_spec` or, for unrecorded
    incremental runs (``job`` is then ``None``), the incremental
    executor's ``execute``.
    """
    if job is None:
        return execute(spec)
    recorder = job.open()
    try:
        return execute(spec, recorder=recorder)
    finally:
        recorder.close()


def default_workers() -> int:
    """``os.cpu_count() - 1`` (at least 1): leave a core for the parent."""
    return max(1, (os.cpu_count() or 2) - 1)


def fork_available() -> bool:
    """Whether this platform supports ``fork`` worker start-up."""
    return "fork" in multiprocessing.get_all_start_methods()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Order-preserving map over a process pool (serial fallback).

    Generic fan-out for embarrassingly parallel pure functions (the
    characterization sweeps use it). ``fn`` must be a picklable
    module-level callable. Falls back to an in-process ``map`` for
    ``workers=1``, single-item inputs, and platforms without ``fork``.
    """
    materialized = list(items)
    n_workers = default_workers() if workers is None else max(1, workers)
    n_workers = min(n_workers, len(materialized))
    if n_workers <= 1 or not fork_available():
        return [fn(item) for item in materialized]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=n_workers, mp_context=context
    ) as pool:
        return list(pool.map(fn, materialized))


@dataclass
class ExecutionStats:
    """What one :meth:`SweepEngine.run_specs` call actually did.

    Attributes:
        requested: Specs in the batch.
        unique: Distinct content digests among them.
        cache_hits: Answered from the memo cache (duplicates within the
            batch count here too — they are simulated once).
        simulated: Runs actually executed.
        retried: Pool resubmissions after a worker crash or run
            timeout.
        quarantined: Specs that exhausted their retries and fell back
            to serial in-parent execution.
        workers_used: Pool size (1 = in-process serial).
        wall_s: Wall-clock for the batch.
        incremental_resumed: Runs restored from a family checkpoint and
            replayed only past it (incremental mode).
        incremental_reused: Runs answered with another policy's result
            after a full-tape match (incremental mode).
        saved_sim_s: Simulated seconds skipped via checkpoint restores.
    """

    requested: int = 0
    unique: int = 0
    cache_hits: int = 0
    simulated: int = 0
    retried: int = 0
    quarantined: int = 0
    workers_used: int = 1
    wall_s: float = 0.0
    incremental_resumed: int = 0
    incremental_reused: int = 0
    saved_sim_s: float = 0.0


@dataclass
class _Batch:
    """The bookkeeping of one :meth:`SweepEngine.run_specs` call.

    Attributes:
        workers: Pool size (1 = in-process serial).
        resolved: Result per digest, cache hits included.
        run_info: Ledger info per digest.
    """

    workers: int = 1
    resolved: Dict[str, SimulationResult] = field(default_factory=dict)
    run_info: Dict[str, Dict[str, Any]] = field(default_factory=dict)


@dataclass
class SweepEngine:
    """Executes batches of runs with memoization and process fan-out.

    Attributes:
        workers: Pool size; ``None`` means ``os.cpu_count() - 1``; ``1``
            forces the serial in-process path.
        cache: The run memo cache (a private in-memory one by default —
            pass a shared instance to memoize across sweeps).
        run_timeout_s: Per-run wall-clock budget in the pool; a run
            exceeding it counts as a worker failure (its process is
            terminated and the pool rebuilt). ``None`` (default) waits
            forever — the pre-existing behavior.
        retries: Pool resubmissions granted to a failed run before it
            is quarantined to serial in-parent execution. Quarantine
            runs on the same :func:`~repro.exec.runspec.execute_spec`
            path, so a healthy-but-unlucky spec still yields its
            bit-identical result; a genuinely poisoned spec raises in
            the parent where the error is visible instead of killing
            workers silently.
        incremental: Execute misses through
            :class:`~repro.exec.incremental.IncrementalExecutor`:
            sweep points sharing a configuration+trace *family* restore
            the longest checkpoint before their first controller
            divergence and replay only the suffix (bit-identical to a
            full run). Incremental runs execute serially in-parent —
            family checkpoints live in this process's cache — so it
            pays off when prefix reuse beats process fan-out, i.e. on
            dense controller-parameter grids. With a ``collector``
            every run records, and a recorded run is a cold run, so
            the batch takes the ordinary serial or pool path and
            touches no checkpoint.
        checkpoint_epoch_s: Simulation-time spacing of the checkpoints
            recorded during each family's first run (incremental mode).
        ledger: Experiment ledger receiving one entry per unique spec
            each batch — digest/family/trace identity, policy + seed,
            wall time, worker pid, provenance flags (cache hit,
            incremental resume, retries, quarantine), worker rusage,
            headline result metrics, and an environment stamp. ``None``
            (the default) records nothing; like every recorder, the
            ledger observes only, so a ledgered batch is bit-identical
            to an unledgered one. Retried and quarantined runs appear
            exactly once (with their retry counts), cache hits appear
            with ``cache_hit: true`` and zero wall time.
        collector: Per-run *simulation* trace spool
            (:class:`~repro.obs.collect.TraceCollector`). The collector
            threads a recorder into every simulated run — serial,
            pool-worker and quarantine alike — writing one JSONL
            segment per run digest. Memo
            cache hits are honored only when the collector already
            holds that digest's segment; otherwise the run is
            re-simulated (bit-identical by determinism) so the trace
            artifact exists. ``None`` (the default) spools nothing.
    """

    workers: Optional[int] = None
    cache: RunCache = field(default_factory=RunCache)
    run_timeout_s: Optional[float] = None
    retries: int = 1
    incremental: bool = False
    checkpoint_epoch_s: float = 600.0
    ledger: Optional[ExperimentLedger] = None
    collector: Optional[TraceCollector] = None
    last_stats: Optional[ExecutionStats] = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.workers is None:
            self.workers = default_workers()
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ConfigurationError("run_timeout_s must be positive")
        if self.retries < 0:
            raise ConfigurationError("retries cannot be negative")
        if self.incremental:
            from repro.exec.incremental import IncrementalExecutor

            self._incremental: Optional[IncrementalExecutor] = (
                IncrementalExecutor(self.cache, self.checkpoint_epoch_s)
            )
        else:
            if self.checkpoint_epoch_s <= 0:
                raise ConfigurationError(
                    "checkpoint_epoch_s must be positive"
                )
            self._incremental = None

    def run(self, spec: RunSpec) -> SimulationResult:
        """Execute (or recall) a single run."""
        return self.run_specs([spec])[0]

    def run_specs(self, specs: Sequence[RunSpec]) -> List[SimulationResult]:
        """Execute a batch; results match the order of ``specs``.

        Duplicated specs (same content digest) are simulated once; cached
        digests are not simulated at all.
        """
        start = time.perf_counter()
        batch = _Batch()
        digests = [spec.digest() for spec in specs]
        pending: List[Tuple[str, RunSpec]] = []
        for digest, spec in zip(digests, specs):
            if digest in batch.resolved \
                    or any(d == digest for d, _ in pending):
                continue
            cached = self.cache.get(digest)
            # A memo hit without a spooled segment is re-simulated
            # (bit-identical by determinism) so the trace artifact
            # exists alongside the result.
            if cached is not None and (
                self.collector is None or self.collector.has(digest)
            ):
                batch.resolved[digest] = cached
                batch.run_info[digest] = {"cache_hit": True}
            else:
                pending.append((digest, spec))
        retried = quarantined = 0
        # Every collected run records, and a recorded run is cold, so a
        # collecting engine never goes through the incremental executor.
        incremental = self._incremental if self.collector is None else None
        inc_before = (
            (
                incremental.stats.resumed_runs,
                incremental.stats.reused_results,
                incremental.stats.saved_s,
            )
            if incremental is not None
            else (0, 0, 0.0)
        )
        if pending:
            n_workers = min(self.workers, len(pending))
            if (
                incremental is not None
                or n_workers <= 1
                or not fork_available()
            ):
                self._run_serial(pending, batch, incremental)
            else:
                batch.workers = n_workers
                retried, quarantined = self._run_pool(pending, batch)
        stats = ExecutionStats(
            requested=len(specs),
            unique=len(set(digests)),
            cache_hits=len(specs) - len(pending),
            simulated=len(pending),
            retried=retried,
            quarantined=quarantined,
            workers_used=batch.workers,
            wall_s=time.perf_counter() - start,
        )
        if incremental is not None:
            stats.incremental_resumed = (
                incremental.stats.resumed_runs - inc_before[0]
            )
            stats.incremental_reused = (
                incremental.stats.reused_results - inc_before[1]
            )
            stats.saved_sim_s = incremental.stats.saved_s - inc_before[2]
        self.last_stats = stats
        if self.ledger is not None:
            # One entry per unique digest, in first-occurrence order —
            # duplicates within the batch share their single entry, and
            # retried/quarantined runs appear exactly once (their retry
            # counts live in the provenance flags).
            emitted: set = set()
            for digest, spec in zip(digests, specs):
                if digest in emitted:
                    continue
                emitted.add(digest)
                self.ledger.record_run(
                    spec, batch.resolved[digest],
                    **batch.run_info.get(digest, {}),
                )
        return [batch.resolved[digest] for digest in digests]

    def _run_serial(
        self,
        pending: Sequence[Tuple[str, RunSpec]],
        batch: _Batch,
        incremental: Optional[IncrementalExecutor],
    ) -> None:
        """Execute ``pending`` in this process, in order.

        Each result is settled (and cached) as soon as it exists: a
        later spec of this batch may be an incremental full-tape match
        that answers with it.
        """
        execute = (
            incremental.execute if incremental is not None else execute_spec
        )
        stats = incremental.stats if incremental is not None else None
        for digest, spec in pending:
            before = (
                None if stats is None
                else (stats.resumed_runs, stats.reused_results)
            )
            timed = _execute_timed(execute, spec, self._job(digest))
            provenance = {} if before is None else {
                "incremental_resumed": stats.resumed_runs > before[0],
                "incremental_reused": stats.reused_results > before[1],
            }
            self._settle(batch, digest, timed, **provenance)

    def _run_pool(
        self, pending: Sequence[Tuple[str, RunSpec]], batch: _Batch
    ) -> Tuple[int, int]:
        """Fan ``pending`` out over a process pool, surviving workers.

        Results are collected in submission order, each wait bounded by
        ``run_timeout_s``. A timeout or a broken pool (on a ``result()``
        or already on a ``submit``) identifies the first uncollected
        spec as the offender: the wedged pool is torn
        down (hung workers are terminated — they never return on their
        own), the offender is retried at the head of a fresh pool up to
        ``retries`` times, then quarantined to in-parent serial
        execution. Specs behind the offender are resubmitted to the
        fresh pool; determinism makes re-execution safe, and collection
        order makes the accounting exact. Returns ``(retried,
        quarantined)`` counts.
        """
        context = multiprocessing.get_context("fork")
        remaining = list(pending)
        attempts: Dict[str, int] = {}
        retried = quarantined = 0
        while remaining:
            pool = ProcessPoolExecutor(
                max_workers=min(batch.workers, len(remaining)),
                mp_context=context,
            )
            futures = []
            failed = False
            try:
                for digest, spec in remaining:
                    futures.append(
                        pool.submit(_pool_entry, spec, self._job(digest))
                    )
            except BrokenProcessPool:
                # A worker died before the last submit: collect what
                # finished, then blame the first spec not collected.
                failed = True
            collected = 0
            for future in futures:
                try:
                    timed = future.result(timeout=self.run_timeout_s)
                except (FuturesTimeoutError, BrokenProcessPool):
                    failed = True
                    break
                digest, _ = remaining[collected]
                collected += 1
                self._settle(
                    batch, digest, timed, retries=attempts.get(digest, 0)
                )
            if not failed:
                pool.shutdown(wait=True)
                return retried, quarantined
            # Tear the pool down hard: cancel queued futures and
            # terminate the worker processes (a hung worker never
            # exits by itself; a crashed pool is unusable anyway).
            for future in futures:
                future.cancel()
            for process in (pool._processes or {}).values():
                process.terminate()
            pool.shutdown(wait=False)
            digest, spec = remaining[collected]
            attempts[digest] = attempts.get(digest, 0) + 1
            # In-flight results behind the offender died with the pool;
            # resubmitting them is safe because runs are deterministic.
            survivors = remaining[collected + 1:]
            if attempts[digest] <= self.retries:
                retried += 1
                remaining = [(digest, spec)] + survivors
            else:
                quarantined += 1
                timed = _execute_timed(execute_spec, spec, self._job(digest))
                self._settle(
                    batch, digest, timed,
                    retries=attempts[digest] - 1, quarantined=True,
                )
                remaining = survivors
        return retried, quarantined

    def _settle(
        self, batch: _Batch, digest: str, timed: _Timed, **provenance: Any
    ) -> None:
        """Store one executed run and account for it.

        Resolves and caches the result and, when ledgering, builds the
        run's ledger info (wall time, worker, rusage and ``provenance``
        flags).
        """
        result, wall_s, worker, usage = timed
        batch.resolved[digest] = result
        self.cache.put(digest, result)
        if self.ledger is not None:
            batch.run_info[digest] = {
                "wall_s": wall_s,
                "worker": worker,
                "rusage": usage,
                **provenance,
            }

    def _job(self, digest: str) -> Optional[TraceJob]:
        """The collector's spool recipe for one run, if collecting."""
        if self.collector is None:
            return None
        return self.collector.job(digest)
