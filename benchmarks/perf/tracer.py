"""Outside-in span tracing for the host-time benchmark.

The benchmark times the simulator's layers without editing them: each
public entry point of ``repro.workloads``, ``repro.models``,
``repro.cluster``, ``repro.core``, ``repro.exec`` and ``repro.obs`` is
replaced with ``setattr`` by a timing wrapper for the length of one
traced iteration, and restored afterwards (:meth:`Tracer.restore`).

A span records its name, start, end, parent and process. Entry points
called once per event (routing, policy decisions, trace spooling) are
too frequent for one record per call; they accumulate into one
aggregate record per (parent span, name) with a call count and a total
time, which the self-time arithmetic treats like any other child.

Spans stay in memory. Forked pool workers inherit the open span stack,
so their spans hang under the parent's span that forked them; each
worker appends its records to a per-pid file whenever its stack
unwinds back to the fork point, and :meth:`Tracer.merge_worker_files`
folds those files into the iteration's record list at the end.

This module imports nothing from ``repro`` at import time: the child
process times ``import repro`` itself before installing any wrapper.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Simulator event kinds whose calls the traced run counts. ``obs``
#: (delayed telemetry delivery) is left out: no workload delays telemetry.
EVENT_KINDS = (
    "arrival", "phase", "tick", "cap", "verify_cap", "reissue_cap",
    "brake_on", "brake_off", "verify_brake", "reissue_brake",
    "server_fail", "server_recover",
)

#: Event kinds timed on their own; every other kind is timed together
#: as ``cluster.kind.control_s``. Each of these fires on every workload,
#: so none of their times reads 0 for want of work.
TIMED_KINDS = ("arrival", "phase", "tick")


def duration(record: Dict[str, Any]) -> float:
    """Wall seconds covered by a span or an aggregate record."""
    if "seconds" in record:
        return record["seconds"]
    return record["end"] - record["start"]


def self_times(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Each record's duration minus the durations of its children.

    Only children in the parent's own process count: a pool worker's
    spans run concurrently with the parent span that forked it, so they
    do not shorten it.
    """
    records = list(records)
    pid_of = {r["id"]: r["pid"] for r in records}
    covered: Dict[str, float] = defaultdict(float)
    for record in records:
        parent = record.get("parent")
        if parent is not None and pid_of.get(parent) == record["pid"]:
            covered[parent] += duration(record)
    return {r["id"]: duration(r) - covered[r["id"]] for r in records}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Attributes:
        records: Finished spans and aggregate records of this process.
        phase: Tag stamped on every new record; the child switches it
            between ``workload``, ``post`` and the rerun phases so
            layer metrics can be taken over one phase at a time.
        worker_dir: Where forked workers append their records.
        worker_tag: File-name prefix for worker record files.
    """

    def __init__(self, worker_dir: Path, worker_tag: str) -> None:
        self.records: List[Dict[str, Any]] = []
        self.phase = "workload"
        self.worker_dir = Path(worker_dir)
        self.worker_tag = worker_tag
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self._stack: List[str] = []
        self._fork_depth = 0
        self._serial = 0
        self._hot: Dict[Tuple[Optional[str], str, str], List[float]] = {}
        self._hot_depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[Any, str, bool, Any]] = []
        self.active = True
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _new_id(self) -> str:
        self._serial += 1
        return f"{self.pid}-{self._serial}"

    def open(self, name: str, start: Optional[float] = None) -> Dict[str, Any]:
        """Start a span under the innermost open one."""
        record = {
            "id": self._new_id(),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pid": self.pid,
            "phase": self.phase,
            "start": perf_counter() if start is None else start,
        }
        self._stack.append(record["id"])
        return record

    def close(self, record: Dict[str, Any], end: Optional[float] = None) -> None:
        """Finish a span opened by :meth:`open` (innermost first)."""
        record["end"] = perf_counter() if end is None else end
        self._stack.pop()
        self.records.append(record)
        if self.pid != self.main_pid and len(self._stack) == self._fork_depth:
            self._flush_worker()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-finished span under the innermost open one."""
        self.close(self.open(name, start), end)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as one span per call."""
        tracer = self

        def traced(*args, **kwargs):
            record = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(record)

        return traced

    def wrap_hot(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed into one aggregate record per parent span.

        Re-entrant calls (a policy wrapper delegating to the policy it
        wraps) are counted once, at the outermost call.
        """
        tracer = self
        depth = self._hot_depth

        def traced(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[name] -= 1
                tracer.count_hot(name, elapsed)

        return traced

    def count_hot(self, name: str, seconds: float) -> None:
        """Add one call of ``seconds`` to the aggregate under the open span."""
        key = (self._stack[-1] if self._stack else None, name, self.phase)
        cell = self._hot.get(key)
        if cell is None:
            self._hot[key] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def _drain_hot(self) -> None:
        for (parent, name, phase), (calls, seconds) in self._hot.items():
            self.records.append({
                "id": self._new_id(), "name": name, "parent": parent,
                "pid": self.pid, "phase": phase,
                "calls": int(calls), "seconds": seconds,
            })
        self._hot.clear()

    def finish(self) -> List[Dict[str, Any]]:
        """Fold pending aggregates into :attr:`records` and return them."""
        self._drain_hot()
        return self.records

    # ------------------------------------------------------------------
    # Forked pool workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        if not self.active:
            return
        self.pid = os.getpid()
        self.records = []
        self._hot = {}
        self._serial = 0
        self._fork_depth = len(self._stack)

    def _worker_file(self, pid: int) -> Path:
        return self.worker_dir / f"{self.worker_tag}.{pid}.jsonl"

    def _flush_worker(self) -> None:
        self._drain_hot()
        with open(self._worker_file(self.pid), "a", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")
        self.records = []

    def merge_worker_files(self) -> None:
        """Move every worker's records into :attr:`records`."""
        for path in sorted(self.worker_dir.glob(f"{self.worker_tag}.*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.records.extend(json.loads(line) for line in handle)
            path.unlink()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """``setattr(owner, attr, replacement)``, undone by :meth:`restore`."""
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back as it was."""
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.active = False


@dataclass
class Counters:
    """Counts the wrappers take in the main process, workload phase only."""

    cache_hits: int = 0
    cache_misses: int = 0
    traces: int = 0
    requests: int = 0
    ckpt_count: int = 0
    ckpt_bytes: int = 0
    shapes: int = 0
    shape_requests: int = 0
    executors: List[Any] = field(default_factory=list)
    pool_results: List[Any] = field(default_factory=list)


def install(tracer: Tracer) -> Counters:
    """Wrap the public entry points of every simulator layer.

    Must run after ``import repro``. Forces ``kernel_timers=True`` on
    every :class:`~repro.cluster.simulator.ClusterSimulator`, so each
    ``cluster.loop`` span carries the per-event-kind calls and seconds
    that its ``run_all`` added.
    """
    from repro.cluster.core import SimulationCore
    from repro.cluster.loadbalancer import LoadBalancer
    from repro.cluster.policy_base import PowerPolicy
    from repro.cluster.simulator import ClusterSimulator
    from repro.core import sweeps
    from repro.exec import cache as cache_module
    from repro.exec import engine as engine_module
    from repro.exec.cache import RunCache
    from repro.exec.engine import SweepEngine
    from repro.exec.incremental import IncrementalExecutor
    from repro.exec.runspec import RunSpec
    from repro.obs.collect import TraceJob
    from repro.workloads.tracegen import (
        ProductionTraceModel,
        SyntheticTrace,
        SyntheticTraceGenerator,
    )

    counters = Counters()
    patch, wrap = tracer.patch, tracer.wrap

    def in_workload() -> bool:
        return tracer.phase == "workload" and tracer.pid == tracer.main_pid

    # repro.workloads: trace synthesis (only runs on trace-cache misses).
    patch(ProductionTraceModel, "generate",
          wrap(ProductionTraceModel.generate, "workloads.trace"))
    patch(SyntheticTrace, "validate",
          wrap(SyntheticTrace.validate, "workloads.trace"))
    generate = wrap(SyntheticTraceGenerator.generate, "workloads.trace")

    def synthesize(generator, utilization_trace):
        trace = generate(generator, utilization_trace)
        if in_workload():
            counters.traces += 1
            counters.requests += len(trace.requests)
        return trace

    patch(SyntheticTraceGenerator, "generate", synthesize)

    # repro.core: the sweep entry points and the policy decisions.
    for name in ("threshold_search", "compare_policies"):
        patch(sweeps, name, wrap(getattr(sweeps, name), "core.sweeps"))
    patch(sweeps.EvaluationHarness, "run",
          wrap(sweeps.EvaluationHarness.run, "core.sweeps"))
    policy_classes = [PowerPolicy]
    for cls in policy_classes:
        policy_classes.extend([
            sub for sub in cls.__subclasses__() if sub not in policy_classes
        ])
        for name in ("desired_caps", "wants_brake"):
            method = vars(cls).get(name)
            if method is not None and not getattr(
                method, "__isabstractmethod__", False
            ):
                patch(cls, name, tracer.wrap_hot(method, "core.policy"))

    # repro.exec: engine, digests, memo cache, codec, incremental.
    digest = RunSpec.digest
    run_specs = SweepEngine.run_specs

    def engine_batch(engine, specs):
        # Results the pool will return are the ones not cached yet.
        digests = [digest(s) for s in specs] if engine.workers > 1 else []
        fresh = {d for d in digests if d not in engine.cache}
        record = tracer.open("exec.engine")
        try:
            results = run_specs(engine, specs)
        finally:
            record["workers"] = engine.last_stats.workers_used
            tracer.close(record)
        if record["workers"] > 1 and in_workload():
            by_digest = dict(zip(digests, results))
            counters.pool_results.extend(by_digest[d] for d in fresh)
        return results

    patch(SweepEngine, "run_specs", engine_batch)
    patch(RunSpec, "digest", wrap(digest, "exec.digest"))
    patch(engine_module, "execute_spec",
          wrap(engine_module.execute_spec, "exec.execute"))
    cache_get = wrap(RunCache.get, "exec.cache_get")

    def lookup(cache, key):
        result = cache_get(cache, key)
        if in_workload():
            if result is None:
                counters.cache_misses += 1
            else:
                counters.cache_hits += 1
        return result

    patch(RunCache, "get", lookup)
    patch(RunCache, "put", wrap(RunCache.put, "exec.cache_put"))
    put_blob = RunCache.put_blob

    def store_blob(cache, key, blob):
        if "-ckpt-" in key and in_workload():
            counters.ckpt_count += 1
            counters.ckpt_bytes += len(blob)
        return put_blob(cache, key, blob)

    patch(RunCache, "put_blob", store_blob)
    patch(cache_module, "result_to_dict",
          wrap(cache_module.result_to_dict, "exec.codec_encode"))
    patch(cache_module, "result_from_dict",
          wrap(cache_module.result_from_dict, "exec.codec_decode"))
    # The incremental executor runs a spec in place of execute_spec.
    execute = wrap(IncrementalExecutor.execute, "exec.execute")

    def incremental(executor, spec, recorder=None):
        if executor not in counters.executors:
            counters.executors.append(executor)
        return execute(executor, spec, recorder)

    patch(IncrementalExecutor, "execute", incremental)

    # repro.cluster: build, event loop, finalize, routing.
    build = wrap(ClusterSimulator.__init__, "cluster.build")

    def construct(simulator, config, policy, recorder=None,
                  kernel_timers=False):
        build(simulator, config, policy, recorder, True)

    patch(ClusterSimulator, "__init__", construct)
    patch(ClusterSimulator, "start",
          wrap(ClusterSimulator.start, "cluster.build"))
    run_all = SimulationCore.run_all

    def loop(core, checkpoint_epoch_s=None, checkpoint_cb=None):
        before = {k: tuple(v) for k, v in core.timers.counters.items()}
        callback = checkpoint_cb
        if callback is not None:
            checkpoint_cb = wrap(callback, "exec.incremental.ckpt_write")
        record = tracer.open("cluster.loop")
        try:
            run_all(core, checkpoint_epoch_s, checkpoint_cb)
        finally:
            record["kinds"] = {
                kind: [calls - before.get(kind, (0, 0.0))[0],
                       seconds - before.get(kind, (0, 0.0))[1]]
                for kind, (calls, seconds) in core.timers.counters.items()
            }
            tracer.close(record)

    patch(SimulationCore, "run_all", loop)
    patch(SimulationCore, "finalize",
          wrap(SimulationCore.finalize, "cluster.finalize"))
    patch(LoadBalancer, "route",
          tracer.wrap_hot(LoadBalancer.route, "cluster.route"))

    # repro.obs: the per-run spool recorder of a TraceCollector.
    open_job = TraceJob.open

    def spool(job):
        recorder = open_job(job)
        recorder.emit = tracer.wrap_hot(recorder.emit, "obs.spool")
        recorder.close = wrap(recorder.close, "obs.spool")
        return recorder

    patch(TraceJob, "open", spool)
    return counters


def prewarm_timelines(tracer: Tracer, counters: Counters, traces) -> None:
    """Fill the roofline timeline memo for every request shape, as a span.

    Untraced runs pay this inside the first simulation of each process;
    the traced run moves it into ``models.timeline`` so the event loop's
    self time excludes it.
    """
    from repro.cluster.server_sim import cached_timeline_segments
    from repro.gpu.specs import A100_80GB
    from repro.models.registry import get_model

    record = tracer.open("models.timeline")
    shapes = set()
    for requests in traces:
        counters.shape_requests += len(requests)
        shapes.update((r.input_tokens, r.output_tokens) for r in requests)
    model = get_model("BLOOM-176B")
    for input_tokens, output_tokens in shapes:
        cached_timeline_segments(model, A100_80GB, input_tokens, output_tokens)
    tracer.close(record)
    counters.shapes = len(shapes)


#: Spans whose summed self time is reported as ``<name>_s``. Every
#: workload goes through each of them.
SPAN_LAYERS = (
    "setup.import", "workloads.trace", "models.timeline", "core.sweeps",
    "core.policy", "exec.engine", "exec.digest", "exec.cache_get",
    "exec.cache_put", "exec.execute", "cluster.build", "cluster.loop",
    "cluster.finalize", "cluster.route",
)

#: Spans of a mechanism only some workloads use, reported as
#: ``<name>_frac``: their self time as a share of the time spent
#: executing runs (``exec.execute``, inclusive, pool workers included).
#: Where the mechanism is off the share is 0, which a time in seconds
#: could not tell apart from a broken timer.
SHARE_LAYERS = ("exec.incremental.ckpt_write", "obs.spool")


def layer_metrics(
    records: List[Dict[str, Any]], counters: Counters
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Times are self times over the workload phase (pool workers
    included); the codec times come from the rerun phase, the only one
    that touches the on-disk cache.
    """
    import pickle

    work = [r for r in records if r["phase"] == "workload"]
    selfs = self_times(records)
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for record in work:
        totals[record["name"]] += selfs[record["id"]]
        calls[record["name"]] += record.get("calls", 0)
    metrics: Dict[str, float] = {
        f"{name}_s": totals[name] for name in SPAN_LAYERS
    }
    executing = sum(duration(r) for r in work if r["name"] == "exec.execute")
    for name in SHARE_LAYERS:
        metrics[f"{name}_frac"] = totals[name] / executing if executing else 0.0
    for name in ("exec.codec_encode", "exec.codec_decode"):
        metrics[f"{name}_s"] = sum(
            selfs[r["id"]] for r in records
            if r["name"] == name and r["phase"] in ("rerun.put", "rerun")
        )

    loops = [r for r in work if r["name"] == "cluster.loop"]
    kinds: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for record in loops:
        for kind, (n, seconds) in record["kinds"].items():
            kinds[kind][0] += n
            kinds[kind][1] += seconds
    for kind in EVENT_KINDS:
        metrics[f"cluster.kind.{kind}_calls"] = kinds[kind][0]
    for kind in TIMED_KINDS:
        metrics[f"cluster.kind.{kind}_s"] = kinds[kind][1]
    metrics["cluster.kind.control_s"] = sum(
        seconds for kind, (_, seconds) in kinds.items()
        if kind not in TIMED_KINDS
    )
    events = sum(n for n, _ in kinds.values())
    loop_inclusive = sum(duration(r) for r in loops) - sum(
        duration(r) for r in work if r["name"] == "exec.incremental.ckpt_write"
    )
    metrics["cluster.events"] = events
    metrics["cluster.loop_ns_per_event"] = (
        1e9 * loop_inclusive / events if events else 0.0
    )
    metrics["cluster.route_calls"] = calls["cluster.route"]
    metrics["core.policy_calls"] = calls["core.policy"]

    metrics["workloads.traces"] = counters.traces
    metrics["workloads.requests"] = counters.requests
    metrics["models.shapes"] = counters.shapes
    metrics["models.shape_reuse"] = (
        counters.shape_requests / counters.shapes if counters.shapes else 0.0
    )
    metrics["exec.cache_hits"] = counters.cache_hits
    metrics["exec.cache_misses"] = counters.cache_misses

    roots = [r for r in work if r["parent"] is None]
    main = roots[0]["pid"] if roots else None
    worker_busy = sum(
        duration(r) for r in work
        if r["name"] == "exec.execute" and r["pid"] != main
    )
    pool_capacity = sum(
        r["workers"] * duration(r) for r in work
        if r["name"] == "exec.engine" and r.get("workers", 1) > 1
    )
    metrics["exec.pool_busy_frac"] = (
        worker_busy / pool_capacity if pool_capacity else 0.0
    )
    metrics["exec.pool_result_bytes"] = sum(
        len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        for result in counters.pool_results
    )

    stats = [executor.stats for executor in counters.executors]
    for field_name in ("base_runs", "resumed_runs", "reused_results",
                       "cold_runs"):
        metrics[f"exec.incremental.{field_name}"] = sum(
            getattr(s, field_name) for s in stats
        )
    metrics["exec.incremental.saved_sim_s"] = sum(s.saved_s for s in stats)
    metrics["exec.incremental.replayed_sim_s"] = sum(
        s.replayed_s for s in stats
    )
    metrics["exec.incremental.ckpt_count"] = counters.ckpt_count
    metrics["exec.incremental.ckpt_bytes"] = counters.ckpt_bytes

    wall = sum(duration(r) for r in roots)
    unattributed = sum(selfs[r["id"]] for r in roots)
    metrics["trace.unattributed_frac"] = unattributed / wall if wall else 0.0
    return metrics
