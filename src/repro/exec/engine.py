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
from repro.obs.export import write_textfile
from repro.obs.ledger import (
    ExperimentLedger,
    rusage_delta,
    rusage_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

T = TypeVar("T")
R = TypeVar("R")

#: Wall-time histogram buckets for individual simulator runs (seconds).
RUN_WALL_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _maybe_fail_for_test(spec: RunSpec) -> None:
    """Deliberately kill or wedge this worker when a test asks for it.

    Inert unless the ``REPRO_EXEC_FAIL_SEED`` environment variable
    matches the spec's seed — the engine-robustness regression tests
    set it to simulate a worker dying (``REPRO_EXEC_FAIL_MODE=kill``,
    the default) or hanging (``=hang``) mid-sweep. With
    ``REPRO_EXEC_FAIL_ONCE=<sentinel path>`` the failure happens only
    while the sentinel file does not exist (it is created just before
    failing), so the first retry succeeds. Runs only inside pool
    workers: the quarantine path calls :func:`execute_spec` directly.
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


def _execute_timed(
    spec: RunSpec,
    job: Optional[TraceJob] = None,
) -> Tuple[SimulationResult, float, int, Dict[str, float]]:
    """Worker entry point of the process pool.

    Returns the result plus the per-run wall time, the executing
    worker's pid, and the worker's ``getrusage`` footprint (CPU-time
    delta across the run, max-RSS high-water mark), so the parent can
    emit ``engine_run`` events and ledger entries without recorders
    having to be picklable into workers. ``job`` is the collector's
    spool recipe: the recorder chain is built (and its segment file
    opened) inside the worker, because file handles do not survive the
    fork boundary.
    """
    _maybe_fail_for_test(spec)
    usage_before = rusage_snapshot()
    start = time.perf_counter()
    result = _execute_spooled(spec, job)
    wall_s = time.perf_counter() - start
    usage = rusage_delta(usage_before, rusage_snapshot())
    return result, wall_s, os.getpid(), usage


def _execute_spooled(
    spec: RunSpec, job: Optional[TraceJob]
) -> SimulationResult:
    """Run one spec, spooling its trace when a collector job is given."""
    if job is None:
        return execute_spec(spec)
    recorder = job.open()
    try:
        return execute_spec(spec, recorder=recorder)
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

    @property
    def runs_per_second(self) -> float:
        """Simulated runs per wall-clock second (0 when nothing ran)."""
        if self.simulated == 0 or self.wall_s <= 0:
            return 0.0
        return self.simulated / self.wall_s


@dataclass
class SweepEngine:
    """Executes batches of runs with memoization and process fan-out.

    Attributes:
        workers: Pool size; ``None`` means ``os.cpu_count() - 1``; ``1``
            forces the serial in-process path.
        cache: The run memo cache (a private in-memory one by default —
            pass a shared instance to memoize across sweeps).
        recorder: Trace sink for engine-level events (per-run wall time,
            cache hit/miss, worker pid, digest, batch summaries, and a
            live ``engine_progress`` feed — runs done, cache hits, ETA
            — emitted as each run completes). The
            default :data:`~repro.obs.recorder.NULL_RECORDER` records
            nothing and adds no overhead. Engine events carry no ``t``
            key — they are wall-clock, not simulation-time. Recording
            happens in the parent process only; to trace *inside* a
            simulation, run :class:`~repro.cluster.simulator
            .ClusterSimulator` directly with a recorder.
        metrics: A registry that accumulates across every
            ``run_specs`` call this engine serves (only populated while
            ``recorder.enabled``), complementing the per-run
            ``SimulationResult.observability`` snapshots that
            :func:`~repro.obs.metrics.aggregate_snapshots` merges.
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
            dense controller-parameter grids.
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
            (:class:`~repro.obs.collect.TraceCollector`). Where
            ``recorder`` sees engine-level events in the parent, the
            collector threads a recorder into every simulated run —
            serial, incremental, pool-worker and quarantine alike —
            writing one JSONL segment per run digest. Memo
            cache hits are honored only when the collector already
            holds that digest's segment; otherwise the run is
            re-simulated (bit-identical by determinism) so the trace
            artifact exists. ``None`` (the default) spools nothing.
    """

    workers: Optional[int] = None
    cache: RunCache = field(default_factory=RunCache)
    recorder: TraceRecorder = NULL_RECORDER
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False
    )
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
        recording = self.recorder.enabled
        ledgering = self.ledger is not None
        run_info: Dict[str, Dict[str, Any]] = {}
        digests = [spec.digest() for spec in specs]
        resolved: dict = {}
        pending: List[Tuple[str, RunSpec]] = []
        for digest, spec in zip(digests, specs):
            if digest in resolved or any(d == digest for d, _ in pending):
                continue
            cached = self.cache.get(digest)
            # A memo hit without a spooled segment is re-simulated
            # (bit-identical by determinism) so the trace artifact
            # exists alongside the result.
            if cached is not None and (
                self.collector is None or self.collector.has(digest)
            ):
                resolved[digest] = cached
                if recording:
                    self.recorder.emit({
                        "kind": "engine_cache_hit", "digest": digest,
                    })
                if ledgering:
                    run_info[digest] = {"cache_hit": True}
            else:
                pending.append((digest, spec))
        workers_used = 1
        retried = quarantined = 0
        batch_hits = len(specs) - len(pending)
        incremental = self._incremental
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
                execute = (
                    incremental.execute
                    if incremental is not None
                    else execute_spec
                )
                for done, (digest, spec) in enumerate(pending, start=1):
                    if not (recording or ledgering):
                        resolved[digest] = self._execute_collected(
                            execute, digest, spec
                        )
                        continue
                    usage_before = (
                        rusage_snapshot() if ledgering else None
                    )
                    inc_run_before = (
                        (
                            incremental.stats.resumed_runs,
                            incremental.stats.reused_results,
                        )
                        if ledgering and incremental is not None
                        else None
                    )
                    run_start = time.perf_counter()
                    result = self._execute_collected(execute, digest, spec)
                    wall_s = time.perf_counter() - run_start
                    resolved[digest] = result
                    if recording:
                        self._record_run(digest, wall_s, os.getpid())
                        self._record_progress(
                            done, len(pending), batch_hits, start, 1
                        )
                    if ledgering:
                        info: Dict[str, Any] = {
                            "wall_s": wall_s,
                            "worker": os.getpid(),
                            "rusage": rusage_delta(
                                usage_before, rusage_snapshot()
                            ),
                        }
                        if inc_run_before is not None:
                            info["incremental_resumed"] = (
                                incremental.stats.resumed_runs
                                > inc_run_before[0]
                            )
                            info["incremental_reused"] = (
                                incremental.stats.reused_results
                                > inc_run_before[1]
                            )
                        run_info[digest] = info
            else:
                workers_used = n_workers
                retried, quarantined = self._run_pool(
                    pending, resolved, n_workers, batch_hits, start,
                    recording, run_info,
                )
            for digest, _ in pending:
                self.cache.put(digest, resolved[digest])
        stats = ExecutionStats(
            requested=len(specs),
            unique=len(set(digests)),
            cache_hits=len(specs) - len(pending),
            simulated=len(pending),
            retried=retried,
            quarantined=quarantined,
            workers_used=workers_used,
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
        if recording:
            registry = self.metrics
            registry.counter("engine.batches").inc()
            registry.counter("engine.requested").inc(stats.requested)
            registry.counter("engine.cache_hits").inc(stats.cache_hits)
            self.recorder.emit({
                "kind": "engine_batch",
                "requested": stats.requested,
                "unique": stats.unique,
                "cache_hits": stats.cache_hits,
                "simulated": stats.simulated,
                "workers": stats.workers_used,
                "wall_s": stats.wall_s,
            })
        if ledgering:
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
                    spec, resolved[digest], **run_info.get(digest, {})
                )
        return [resolved[digest] for digest in digests]

    def _run_pool(
        self,
        pending: Sequence[Tuple[str, RunSpec]],
        resolved: dict,
        n_workers: int,
        batch_hits: int,
        batch_start: float,
        recording: bool,
        run_info: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> Tuple[int, int]:
        """Fan ``pending`` out over a process pool, surviving workers.

        Results are collected in submission order, each wait bounded by
        ``run_timeout_s``. A timeout or a broken pool identifies the
        first uncollected spec as the offender: the wedged pool is torn
        down (hung workers are terminated — they never return on their
        own), the offender is retried at the head of a fresh pool up to
        ``retries`` times, then quarantined to in-parent serial
        execution. Specs behind the offender are resubmitted to the
        fresh pool; determinism makes re-execution safe, and collection
        order makes the accounting exact. Returns ``(retried,
        quarantined)`` counts.
        """
        context = multiprocessing.get_context("fork")
        ledgering = self.ledger is not None and run_info is not None
        remaining = list(pending)
        attempts: Dict[str, int] = {}
        total = len(pending)
        done_count = retried = quarantined = 0
        while remaining:
            pool = ProcessPoolExecutor(
                max_workers=min(n_workers, len(remaining)),
                mp_context=context,
            )
            futures = [
                pool.submit(
                    _execute_timed,
                    spec,
                    self.collector.job(digest)
                    if self.collector is not None else None,
                )
                for digest, spec in remaining
            ]
            failure: Optional[str] = None
            collected = 0
            for future in futures:
                try:
                    result, wall_s, worker, usage = future.result(
                        timeout=self.run_timeout_s
                    )
                except FuturesTimeoutError:
                    failure = "timeout"
                    break
                except BrokenProcessPool:
                    failure = "crash"
                    break
                digest, _ = remaining[collected]
                resolved[digest] = result
                collected += 1
                done_count += 1
                if recording:
                    self._record_run(digest, wall_s, worker)
                    self._record_progress(
                        done_count, total, batch_hits, batch_start,
                        n_workers,
                    )
                if ledgering:
                    run_info[digest] = {
                        "wall_s": wall_s,
                        "worker": worker,
                        "rusage": usage,
                        "retries": attempts.get(digest, 0),
                    }
            if failure is None:
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
                action = "retry"
                retried += 1
                remaining = [(digest, spec)] + survivors
            else:
                action = "quarantine"
                quarantined += 1
                usage_before = rusage_snapshot() if ledgering else None
                run_start = time.perf_counter()
                result = _execute_spooled(
                    spec,
                    self.collector.job(digest)
                    if self.collector is not None else None,
                )
                wall_s = time.perf_counter() - run_start
                resolved[digest] = result
                done_count += 1
                if recording:
                    self._record_run(digest, wall_s, os.getpid())
                    self._record_progress(
                        done_count, total, batch_hits, batch_start,
                        n_workers,
                    )
                if ledgering:
                    run_info[digest] = {
                        "wall_s": wall_s,
                        "worker": os.getpid(),
                        "rusage": rusage_delta(
                            usage_before, rusage_snapshot()
                        ),
                        "retries": attempts[digest] - 1,
                        "quarantined": True,
                    }
                remaining = survivors
            if recording:
                self.metrics.counter("engine.worker_retries").inc()
                self.recorder.emit({
                    "kind": "engine_worker_retry",
                    "digest": digest,
                    "attempts": attempts[digest],
                    "reason": failure,
                    "action": action,
                })
        return retried, quarantined

    def _execute_collected(
        self,
        execute: Callable[..., SimulationResult],
        digest: str,
        spec: RunSpec,
    ) -> SimulationResult:
        """Serial-path execution, spooling the trace when collecting.

        ``execute`` is either :func:`~repro.exec.runspec.execute_spec`
        or the incremental executor's ``execute`` — both accept the
        same optional ``recorder`` and guarantee the recorded stream
        matches a cold run's.
        """
        if self.collector is None:
            return execute(spec)
        recorder = self.collector.job(digest).open()
        try:
            return execute(spec, recorder=recorder)
        finally:
            recorder.close()

    def _record_run(self, digest: str, wall_s: float, worker: int) -> None:
        """Ledger one executed spec into the trace and the registry."""
        self.metrics.counter("engine.simulated").inc()
        self.metrics.histogram(
            "engine.run_wall_s", RUN_WALL_BUCKETS
        ).observe(wall_s)
        self.recorder.emit({
            "kind": "engine_run",
            "digest": digest,
            "wall_s": wall_s,
            "worker": worker,
        })

    def _record_progress(
        self,
        done: int,
        total: int,
        cache_hits: int,
        batch_start: float,
        workers: int,
    ) -> None:
        """Emit a live ``engine_progress`` event after each completed run.

        The ETA extrapolates the batch's observed throughput
        (completed runs over elapsed wall time — worker parallelism is
        therefore already priced in) to the remaining runs. Long sweeps
        stream these while still executing; a dashboard (or plain
        ``tail -f`` on a JSONL sink) shows runs done, cache hits, and
        time to completion without waiting for the batch to return.
        """
        elapsed = time.perf_counter() - batch_start
        remaining = total - done
        eta_s = (elapsed / done) * remaining if done else float("inf")
        self.metrics.gauge("engine.progress_done").set(done)
        self.recorder.emit({
            "kind": "engine_progress",
            "done": done,
            "total": total,
            "cache_hits": cache_hits,
            "elapsed_s": elapsed,
            "eta_s": eta_s,
            "workers": workers,
        })

    def export_metrics(
        self,
        path: str,
        labels: Optional[dict] = None,
    ) -> str:
        """Write this engine's metrics as an OpenMetrics textfile.

        Renders the accumulated registry (batches, cache hits, per-run
        wall-time histogram, progress) through
        :func:`repro.obs.export.write_textfile`; returns the rendered
        text. The registry only accumulates while the engine's recorder
        is enabled, so pair this with any recorder (a
        :class:`~repro.obs.recorder.MemoryRecorder` suffices) for a
        populated export at the end of a long sweep.
        """
        return write_textfile(
            path, self.metrics.snapshot(), prefix="repro_engine",
            labels=labels,
        )
