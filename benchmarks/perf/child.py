"""One benchmark iteration, in a fresh process.

``run.py`` launches it; it is not meant to be run by hand::

    python3 benchmarks/perf/child.py --workload NAME --seed N \
        [--trace] [--verify] [--smoke]

The process times ``import repro`` plus trace synthesis (set-up), the
workload's sweep (wall time), each simulation run of the sweep (through
the simulator's own experiment ledger) and the rerun from an on-disk
cache, then fingerprints every result and prints one JSON object as its
last line of standard output. ``--trace`` installs the layer wrappers of
:mod:`tracer`, reports per-layer metrics and writes the spans to
``out/<workload>.spans.jsonl``. ``--verify`` adds the workload's
cross-path check after everything timed.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: Warm reruns per iteration; ``rerun_s`` is the fastest rerun of any
#: iteration of a run.
RERUNS = 9

#: Passes of the host-speed probe per iteration (see ``run.end_to_end``).
PROBES = 8


def _probe() -> float:
    """Seconds for a fixed pure-Python loop that runs no simulator code."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return perf_counter() - start


def _import_repro() -> None:
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    sys.path.insert(1, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def _peak_rss_mb() -> float:
    """High-water RSS of this process and its reaped pool workers."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def run_iteration(workload, seed, work_dir, start, import_end, traced, verify):
    """Time one cold run of ``workload`` and its rerun; return the report."""
    from repro.exec import RunCache
    from repro.obs.ledger import ExperimentLedger
    from tracer import Tracer, install, layer_metrics, prewarm_timelines
    from workloads import fingerprint, offered_requests

    tracer = counters = None
    if traced:
        tracer = Tracer(work_dir, "spans")
        root = tracer.open("workload", start)
        tracer.add("setup.import", start, import_end)
        counters = install(tracer)
    # The simulator's own in-memory ledger times every simulation run.
    ledger = ExperimentLedger()
    harness = workload.harness(
        seed, collector=workload.collector(work_dir / "spool"), ledger=ledger
    )
    traces = [harness.requests_for(f) for f in workload.trace_fractions()]
    setup_end = perf_counter()
    if traced:
        prewarm_timelines(tracer, counters, traces)
    workload.run(harness, seed)
    wall_end = perf_counter()
    peak_rss_mb = _peak_rss_mb()
    if traced:
        tracer.close(root, wall_end)
        tracer.phase = "post"

    labeled = workload.labeled_specs(harness, seed)
    results = {}
    for label, spec in labeled:
        result = harness.cache.get(spec.digest())
        if result is None:
            raise RuntimeError(f"{workload.name}: sweep did not produce {label}")
        results[label] = result
    fingerprints = {label: fingerprint(r) for label, r in results.items()}
    run_wall = {entry["digest"]: entry["wall_s"] for entry in ledger.entries}
    run_s = {label: run_wall[spec.digest()] for label, spec in labeled}

    # Rerun: redraw the figure from a fresh on-disk cache.
    cache_dir = work_dir / "rerun"
    put_cache = RunCache(cache_dir)
    if traced:
        tracer.phase = "rerun.put"
        put_root = tracer.open("rerun.put")
    for label, spec in labeled:
        put_cache.put(spec.digest(), results[label])
    if traced:
        tracer.close(put_root)
    # A rerun takes a tenth of a second, so one sample is mostly noise:
    # time several, each on a fresh harness and cache object over the
    # same directory. Only the first one is traced.
    rerun_times = []
    for repeat in range(RERUNS):
        if traced:
            tracer.phase = "rerun" if repeat == 0 else "post"
            rerun_root = tracer.open("rerun")
        rerun_start = perf_counter()
        rerun_harness = workload.harness(seed, cache=RunCache(cache_dir))
        workload.run(rerun_harness, seed)
        rerun_times.append(perf_counter() - rerun_start)
        if traced:
            tracer.close(rerun_root)
    if traced:
        tracer.phase = "post"
    mismatches = sorted(
        label for label, spec in labeled
        if fingerprint(rerun_harness.cache.get(spec.digest()))
        != fingerprints[label]
    )

    if verify and workload.incremental:
        # Incremental execution must equal plain serial execution.
        serial = replace(workload, incremental=False)
        serial_harness = serial.harness(seed)
        serial.run(serial_harness, seed)
        mismatches = sorted(set(mismatches) | {
            label for label, spec in serial.labeled_specs(serial_harness, seed)
            if fingerprint(serial_harness.cache.get(spec.digest()))
            != fingerprints[label]
        })

    report = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "workers": workload.workers,
        "setup_s": setup_end - start,
        "wall_s": wall_end - start,
        "run_s": run_s,
        "rerun_times": rerun_times,
        "probe_times": [_probe() for _ in range(PROBES)],
        "peak_rss_mb": peak_rss_mb,
        "offered_requests": sum(offered_requests(r) for r in results.values()),
        "fingerprints": fingerprints,
        "mismatches": mismatches,
    }
    if traced:
        tracer.restore()
        records = tracer.finish()
        tracer.merge_worker_files()
        layers = layer_metrics(records, counters)
        spool = list((work_dir / "spool").glob("*.jsonl"))
        layers["obs.events"] = sum(
            p.read_bytes().count(b"\n") for p in spool
        )
        layers["obs.segment_bytes"] = sum(p.stat().st_size for p in spool)
        layers["exec.codec_bytes"] = sum(
            p.stat().st_size for p in cache_dir.glob("*.json")
        )
        report["layers"] = layers
        with open(OUT / f"{workload.name}.spans.jsonl", "w",
                  encoding="utf-8") as out:
            for record in tracer.records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    _import_repro()
    import_end = perf_counter()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        report = run_iteration(
            workload, args.seed, work_dir, _START, import_end,
            args.trace, args.verify,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
