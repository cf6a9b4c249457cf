"""Host-time benchmark of the POLCA simulator: entry point.

From the repository root::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] \
        [--seconds S] [--trace 0|1]

Workload names, metric names and units, and the default ``--seconds``
come from ``BENCHMARK.json`` at the repository root. Each iteration of
a workload runs in a fresh process (``child.py``) launched by this one
parent process. Without ``--workload`` every workload runs, in rounds
that rotate their order. ``--seconds`` is the budget per workload:
rounds repeat until the next one would end after ``--seconds`` times
the number of workloads (at least three rounds). Every end-to-end
metric is printed as ``workload metric value unit`` with its quartiles
and sample count, and every run's simulated output is checked: against
the committed fingerprints at seed 1, and across iterations, execution
paths and the rerun at every seed.

``--trace 1`` interleaves traced iterations with the untraced ones and
reports the per-layer metrics instead; end-to-end numbers always come
from untraced iterations. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every run matched; 2 means the simulator's
sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FINGERPRINTS = HERE / "fingerprints" / "seed1.json"

MIN_ROUNDS = 3

#: Fastest pass of ``child._probe`` on the host the benchmark was
#: defined on (2 vCPUs of an Intel Xeon, Python 3.11.7). Only its ratio
#: to a run's own fastest pass matters: it sets the scale of the two
#: speed-scaled metrics, which equal the raw ones on a host as fast.
PROBE_REFERENCE_S = 0.0064

#: Longest a child iteration may take before it counts as failed; an
#: iteration normally takes seconds.
CHILD_TIMEOUT_S = 90.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_runs(
    reference: Dict[str, Dict], iteration: Dict
) -> Tuple[int, int]:
    """``(attempted, failed)`` for one iteration against the reference.

    A run fails when it is missing, its fingerprint differs, or the
    iteration reported it among its cross-path mismatches.
    """
    labels = set(reference) | set(iteration["fingerprints"])
    failed = sum(
        1 for label in labels
        if iteration["fingerprints"].get(label) != reference.get(label)
        or label in iteration["mismatches"]
    )
    return len(labels), failed


def environment() -> Dict[str, str]:
    """Host stamp: core count, CPU model, Python and numpy versions."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_child(
    workload: str, seed: int, traced: bool, verify: bool, smoke: bool
) -> Optional[Dict]:
    """One iteration in a fresh process; ``None`` if it failed."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed)]
    command += ["--trace"] * traced + ["--verify"] * verify
    command += ["--smoke"] * smoke
    # Own session, so a timeout can stop the pool workers along with it.
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as error:
        # A timeout, or this process being interrupted or terminated.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        shutil.rmtree(HERE / "out" / f"work-{child.pid}", ignore_errors=True)
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        print(f"# {workload}: iteration timed out", file=sys.stderr)
        return None
    if child.returncode != 0:
        print(f"# {workload}: iteration failed\n{stderr}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def measure(
    workloads: Sequence[str],
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
) -> Tuple[Dict[str, List[Dict]], Dict[str, List[Dict]], bool]:
    """Run rounds until the next one would end after the budget.

    The budget is ``seconds`` per workload. Returns the untraced and
    traced iteration reports per workload and whether an iteration
    failed to report, which ends the measurement.
    """
    plain: Dict[str, List[Dict]] = {w: [] for w in workloads}
    traced: Dict[str, List[Dict]] = {w: [] for w in workloads}
    budget = seconds * len(workloads)
    start = perf_counter()
    rounds = 0
    min_rounds = 1 if smoke else MIN_ROUNDS
    while True:
        round_start = perf_counter()
        shift = rounds % len(workloads)
        for workload in list(workloads[shift:]) + list(workloads[:shift]):
            passes = [False, True] if trace else [False]
            if rounds % 2:
                passes.reverse()
            for with_trace in passes:
                report = run_child(
                    workload, seed, with_trace,
                    verify=rounds == 0 and not with_trace, smoke=smoke,
                )
                if report is None:
                    return plain, traced, True
                (traced if with_trace else plain)[workload].append(report)
        rounds += 1
        now = perf_counter()
        if rounds >= min_rounds and 2 * now - round_start - start > budget:
            return plain, traced, False


def host_speed(reports: List[Dict]) -> float:
    """How much faster than the reference host this run's host was: the
    fastest probe pass of the run against :data:`PROBE_REFERENCE_S`."""
    return PROBE_REFERENCE_S / min(
        t for r in reports for t in r["probe_times"]
    )


def end_to_end(reports: List[Dict]) -> Dict[str, Tuple[float, List[float]]]:
    """Every end-to-end metric as (reported value, samples).

    The samples are one per iteration, except for ``rerun_s``, which
    pools the reruns of every iteration. ``setup_s`` and
    ``peak_rss_mb`` report the median. A shared host can run a third
    slower for seconds to minutes at a time (README.md, "Host noise"),
    so the two timings of short pieces of work report each piece at its
    fastest, scaled to the reference host speed: ``requests_per_s``
    divides the offered requests by the sum, over the sweep's runs, of
    each run's fastest time in any iteration, and ``rerun_s`` is the
    fastest rerun. The samples are not scaled.
    """
    speed = host_speed(reports)
    offered = reports[0]["offered_requests"]
    fastest = sum(
        min(r["run_s"][label] for r in reports)
        for label in reports[0]["run_s"]
    )
    setup = [r["setup_s"] for r in reports]
    throughput = [offered / sum(r["run_s"].values()) for r in reports]
    rss = [r["peak_rss_mb"] for r in reports]
    reruns = [t for r in reports for t in r["rerun_times"]]
    return {
        "setup_s": (statistics.median(setup), setup),
        "requests_per_s": (offered / fastest / speed, throughput),
        "peak_rss_mb": (statistics.median(rss), rss),
        "rerun_s": (min(reruns) * speed, reruns),
    }


def per_layer(
    plain: List[Dict], traced: List[Dict]
) -> Dict[str, Tuple[float, List[float]]]:
    """Every per-layer metric as (median, samples), one per traced
    iteration."""
    samples: Dict[str, List[float]] = {}
    for report in traced:
        for name, value in report["layers"].items():
            samples.setdefault(name, []).append(value)
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    samples["trace.overhead_frac"] = [
        r["wall_s"] / untraced_wall - 1.0 for r in traced
    ]
    return {
        name: (statistics.median(values), values)
        for name, values in samples.items()
    }


def units_of(metrics: List[Dict]) -> Dict[str, str]:
    """``name -> unit`` for one metric list of ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = tuple(w["name"] for w in contract["workloads"])
    e2e_units = units_of(contract["end_to_end"])
    layer_units = units_of(contract["per_layer"])

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=all_workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="time budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="half-hour, one-combo workloads and a single round "
             "(the harness's own tests)",
    )
    parser.add_argument(
        "--write-fingerprints", action="store_true",
        help="after an intended change of simulated results: store this "
             "run's fingerprints as the committed seed-1 reference",
    )
    args = parser.parse_args(argv)
    if args.write_fingerprints and (args.seed != 1 or args.smoke):
        parser.error("--write-fingerprints needs --seed 1 and no --smoke")

    workloads = (args.workload,) if args.workload else all_workloads
    for key, value in environment().items():
        print(f"# env {key}={value}")
    plain, traced, lost = measure(
        workloads, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    committed = {}
    if args.seed == 1 and not args.smoke and (
        FINGERPRINTS.exists() or not args.write_fingerprints
    ):
        committed = json.loads(FINGERPRINTS.read_text())
    if args.write_fingerprints:
        committed.update(
            (w, plain[w][0]["fingerprints"]) for w in workloads if plain[w]
        )
        FINGERPRINTS.write_text(
            json.dumps(committed, indent=1, sort_keys=True) + "\n"
        )

    attempted = failed = int(lost)
    metrics: Dict[str, Dict] = {}
    for workload in workloads:
        reports = plain[workload] + traced[workload]
        if not plain[workload]:
            continue
        # Every iteration, traced or not, must reproduce the committed
        # fingerprints (seed 1) or else the first untraced iteration.
        reference = committed.get(workload, plain[workload][0]["fingerprints"])
        w_attempted = w_failed = 0
        for report in reports:
            a, f = check_runs(reference, report)
            w_attempted += a
            w_failed += f
        attempted += w_attempted
        failed += w_failed
        workers = plain[workload][0]["workers"]
        print(f"# {workload} workers={workers} (no speed-up is reported)")
        walls = [r["wall_s"] for r in plain[workload]]
        q1, median, q3 = quartiles(walls)
        print(f"# {workload} wall_s {median!r} s q1={q1!r} q3={q3!r} "
              f"n={len(walls)} (unbounded: see README)")
        print(f"# {workload} host_speed {host_speed(plain[workload])!r} "
              f"(reference probe {PROBE_REFERENCE_S} s)")
        print(f"{workload} failed_frac {w_failed / w_attempted!r} ratio "
              f"n={w_attempted}")
        samples = end_to_end(plain[workload])
        reported = e2e_units
        if args.trace and traced[workload]:
            samples.update(per_layer(plain[workload], traced[workload]))
            reported = layer_units
        units = {**e2e_units, **layer_units}
        unknown = set(samples) - set(units)
        missing = set(reported) - set(samples)
        if unknown or missing:
            raise RuntimeError(
                f"not in BENCHMARK.json: {sorted(unknown)}; "
                f"not measured: {sorted(missing)}"
            )
        for name, (value, values) in samples.items():
            q1, _, q3 = quartiles(values)
            print(f"{workload} {name} {value!r} {units[name]} "
                  f"q1={q1!r} q3={q3!r} n={len(values)}")
            if name in reported:
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": value, "unit": units[name]}
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit, so run_child stops the iteration in
    # flight before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
