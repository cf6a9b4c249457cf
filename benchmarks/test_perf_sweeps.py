"""Sweep-engine performance: serial vs parallel vs incremental.

``test_perf_sweeps`` times a fixed Figure 13-shaped grid (threshold
combos x oversubscription levels, plus the shared baseline) twice —
serial, then with 4 workers — each against a fresh memo cache so both
timings simulate every run. The measurements land in
``BENCH_sweeps.json`` at the repo root, which CI uploads as an
artifact; the expected >= 2x speedup at 4 workers is asserted only on
machines that actually have 4 cores.

``test_perf_obs_recording_overhead`` emits ``BENCH_obs.json``: the
same grid serial-unrecorded, then serial with a ``TraceCollector``
spooling the overhead-bounded site config (every low-rate command/
fault/protection kind in full, the serve plane hash-sampled at 5%
with its exact drop census, the per-tick kinds left to the metrics
snapshot) to per-digest JSONL segments. Sampled recording must stay
cheap: the two passes run as interleaved pairs (wall-clock on shared
runners drifts far more than the budget; adjacent timings share the
drift phase), the best per-pair delta (recorded minus unrecorded
wall) is asserted to be at most ``max(10% of the unrecorded minimum,
1.0 s)`` — the 1 s floor absorbs timer noise on fast grids and
dominates on this one, so the ratio of the two minima may exceed
1.1 (the committed baseline reads 1.213x) — and the deterministic
segment/event counts land in the report so the regression sentinel
pins them exactly.

``test_perf_sim_core`` emits ``BENCH_sim_core.json`` for the
simulation core and the checkpointed incremental executor: the same
grid serial-cold (the ``soa_serial`` section; the pre-SoA seed's wall time
is recorded alongside for the vs-seed comparison), through the
process-pool optimized path (>= 2x floor), through the incremental
executor cold (prefix restores, with the executor's saved/replayed
second counters), and a warm ``threshold_search`` re-run answered from
the result cache (>= 3x floor, in practice orders of magnitude).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.policy import PolcaThresholds
from repro.core.sweeps import EvaluationHarness, threshold_search
from repro.exec import PolicySpec, fork_available
from repro.units import hours

COMBOS = (
    ("75-85", PolcaThresholds(t1=0.75, t2=0.85)),
    ("80-89", PolcaThresholds(t1=0.80, t2=0.89)),
    ("85-95", PolcaThresholds(t1=0.85, t2=0.95)),
)
FRACTIONS = (0.10, 0.20, 0.30, 0.40)
GRID_HOURS = float(os.environ.get("REPRO_PERF_GRID_HOURS", "6"))
PARALLEL_WORKERS = 4
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweeps.json"


def run_grid(workers: int) -> int:
    """Run the full grid against a fresh cache; return unique run count."""
    harness = EvaluationHarness(duration_s=hours(GRID_HOURS), seed=1)
    points = threshold_search(harness, COMBOS, FRACTIONS, workers=workers)
    assert len(points) == len(COMBOS) * len(FRACTIONS)
    return harness.cache.stats["stores"]


def test_perf_sweeps(benchmark):
    if not fork_available():
        pytest.skip("platform has no fork start method")

    start = time.perf_counter()
    serial_runs = run_grid(1)
    serial_wall = time.perf_counter() - start

    def parallel_grid():
        return run_grid(PARALLEL_WORKERS)

    parallel_runs = benchmark.pedantic(
        parallel_grid, rounds=1, iterations=1
    )
    parallel_wall = benchmark.stats.stats.total

    assert serial_runs == parallel_runs
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    report = {
        "grid": {
            "combos": [label for label, _ in COMBOS],
            "added_fractions": list(FRACTIONS),
            "simulated_hours": GRID_HOURS,
            "unique_runs": serial_runs,
        },
        "serial": {
            "workers": 1,
            "wall_s": round(serial_wall, 3),
            "runs_per_s": round(serial_runs / serial_wall, 3),
        },
        "parallel": {
            "workers": PARALLEL_WORKERS,
            "wall_s": round(parallel_wall, 3),
            "runs_per_s": round(parallel_runs / parallel_wall, 3),
        },
        "speedup": round(speedup, 3),
        "cpu_count": os.cpu_count(),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n=== Sweep engine: {serial_runs} runs of a "
          f"{GRID_HOURS:.0f}h grid ===")
    print(f"serial:    {serial_wall:6.2f} s  "
          f"({report['serial']['runs_per_s']:.2f} runs/s)")
    print(f"workers={PARALLEL_WORKERS}: {parallel_wall:6.2f} s  "
          f"({report['parallel']['runs_per_s']:.2f} runs/s)")
    print(f"speedup:   {speedup:.2f}x  (report: {REPORT_PATH.name})")

    benchmark.extra_info.update(report)
    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at {PARALLEL_WORKERS} workers, "
            f"got {speedup:.2f}x"
        )


OBS_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: Interleaved timing rounds per pass; min-of-N is compared. One round
#: is hostage to scheduler noise that routinely dwarfs the 10% budget.
OBS_TIMING_ROUNDS = 3

#: The overhead-bounded site config the recorded pass spools: every
#: low-rate kind — command lifecycles, protection, churn, faults — is
#: kept in full, the serve plane is hash-sampled at 5% (deterministic,
#: with an exact per-kind drop census in each segment), and the
#: per-tick ``control``/``req_arrival``/``phase_start`` kinds are left
#: to the metrics snapshot, where the utilization histogram and the
#: request counters already carry them. ``TraceRecorder.wants()``
#: gating makes the elided kinds free at the hook points.
OBS_KEEP_KINDS = (
    "brake_cancel_release", "brake_issue", "brake_land", "brake_reissue",
    "brake_release_request", "brake_request", "brake_verify",
    "cap_issue", "cap_land", "cap_reissue", "cap_verify",
    "capacity_status", "drop", "fallback_enter", "fallback_exit",
    "phase_rescale", "reenergize", "reenergize_done", "run_meta",
    "serve", "server_fail", "server_recover",
    "shed_defer", "shed_engage", "shed_release",
    "telemetry_fault", "trip_risk",
)
OBS_SERVE_RATE = 0.05


def test_perf_obs_recording_overhead(benchmark):
    """Sampled trace collection's best paired overhead stays within
    ``max(10% of the unrecorded wall, 1.0 s)``."""
    import tempfile

    from repro.obs import TraceCollector

    # Unrecorded and recorded grids run as interleaved pairs: shared
    # runners drift between slow and fast phases by far more than the
    # 10% budget, and adjacent timings see the same phase, so the
    # per-pair delta cancels the drift that min-of-N alone cannot.
    unrecorded_walls: list = []
    recorded_walls: list = []
    runs = {}

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as spool:
        collector = TraceCollector(
            spool, kinds=OBS_KEEP_KINDS, sample={"serve": OBS_SERVE_RATE},
        )

        def recorded_grid():
            # A fresh harness per round: every round simulates the
            # whole grid cold, re-spooling identical segments.
            harness = EvaluationHarness(
                duration_s=hours(GRID_HOURS), seed=1, collector=collector,
            )
            points = threshold_search(
                harness, COMBOS, FRACTIONS, workers=1
            )
            assert len(points) == len(COMBOS) * len(FRACTIONS)
            return harness.cache.stats["stores"]

        def round_pair():
            start = time.perf_counter()
            runs["unrecorded"] = run_grid(1)
            unrecorded_walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            runs["recorded"] = recorded_grid()
            recorded_walls.append(time.perf_counter() - start)

        benchmark.pedantic(
            round_pair, rounds=OBS_TIMING_ROUNDS, iterations=1
        )
        digests = collector.digests()
        segments = [collector.events(digest) for digest in digests]
        events_total = sum(len(events) for events in segments)
        serve_events = sum(
            1 for events in segments for event in events
            if event.get("kind") == "serve"
        )

    assert runs["recorded"] == runs["unrecorded"]
    unrecorded_runs = runs["unrecorded"]
    unrecorded_wall = min(unrecorded_walls)
    recorded_wall = min(recorded_walls)
    overhead_wall = min(
        recorded - unrecorded
        for recorded, unrecorded in zip(recorded_walls, unrecorded_walls)
    )
    ratio = recorded_wall / unrecorded_wall if unrecorded_wall > 0 else 0.0
    report = {
        "grid": {
            "combos": [label for label, _ in COMBOS],
            "added_fractions": list(FRACTIONS),
            "simulated_hours": GRID_HOURS,
            "unique_runs": unrecorded_runs,
        },
        "unrecorded": {
            "wall_s": round(unrecorded_wall, 3),
            "timing_rounds": OBS_TIMING_ROUNDS,
        },
        "recorded": {
            "wall_s": round(recorded_wall, 3),
            "timing_rounds": OBS_TIMING_ROUNDS,
            "segments": len(digests),
            "events_total": events_total,
            "serve_events_kept": serve_events,
            "serve_sample_rate": OBS_SERVE_RATE,
        },
        "overhead": {
            # ratio of the two wall minima; judged under the relative
            # timing tolerance like every *wall_s metric. The asserted
            # per-pair delta is deliberately NOT reported: its scale
            # (tenths of a second) sits under the sentinel's noise
            # floor, so pinning it would only flap.
            "relative_wall_s": round(ratio, 3),
        },
        "cpu_count": os.cpu_count(),
    }
    OBS_REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n=== Trace collection: {unrecorded_runs} runs of a "
          f"{GRID_HOURS:.0f}h grid (min of {OBS_TIMING_ROUNDS} "
          f"interleaved pairs) ===")
    print(f"unrecorded: {unrecorded_wall:6.2f} s")
    print(f"recorded:   {recorded_wall:6.2f} s  "
          f"({events_total} events in {len(digests)} segments, "
          f"serve sampled at {OBS_SERVE_RATE:.0%}, x{ratio:.3f} wall)")
    print(f"overhead:   {overhead_wall:+6.2f} s best paired delta")

    benchmark.extra_info.update(report)
    budget = max(unrecorded_wall * 0.10, 1.0)
    assert overhead_wall <= budget, (
        f"sampled recording costs {overhead_wall:.2f} s over the "
        f"{unrecorded_wall:.2f} s unrecorded grid in the best "
        f"interleaved pair — beyond the max(10%, 1.0 s) budget "
        f"({budget:.2f} s)"
    )


SIM_CORE_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_sim_core.json"
)

#: Serial wall-clock of this exact grid (default 6 h horizon) measured
#: on the pre-struct-of-arrays simulator before the core refactor, on
#: the CI reference machine. The SoA section below reports the current
#: serial time next to it so the vs-seed ratio is tracked run over run.
PRE_SOA_SERIAL_WALL_S = 8.8


def test_perf_sim_core(benchmark):
    if not fork_available():
        pytest.skip("platform has no fork start method")

    def timed_grid(harness, workers=1):
        start = time.perf_counter()
        points = threshold_search(
            harness, COMBOS, FRACTIONS, workers=workers
        )
        wall = time.perf_counter() - start
        assert len(points) == len(COMBOS) * len(FRACTIONS)
        return wall

    # 1. The core, serial and cold: every grid point simulated.
    serial_wall = timed_grid(EvaluationHarness(
        duration_s=hours(GRID_HOURS), seed=1
    ))

    # 2. The optimized path: process fan-out over the same cold grid.
    def optimized_grid():
        return timed_grid(EvaluationHarness(
            duration_s=hours(GRID_HOURS), seed=1
        ), workers=PARALLEL_WORKERS)

    optimized_wall = benchmark.pedantic(
        optimized_grid, rounds=1, iterations=1
    )

    # 3. The incremental executor, cold: each family's first run
    # records tape + checkpoints, the rest restore their longest
    # matching prefix and replay only the suffix. The grid is the same
    # baseline + combos x fractions batch threshold_search builds, run
    # through an engine we hold so its executor counters are readable.
    incremental = EvaluationHarness(
        duration_s=hours(GRID_HOURS), seed=1, incremental=True,
    )
    engine = incremental.engine()
    specs = [incremental.baseline_spec()] + [
        incremental.spec(
            PolicySpec("POLCA", thresholds), added_fraction=fraction
        )
        for _, thresholds in COMBOS
        for fraction in FRACTIONS
    ]
    start = time.perf_counter()
    results = engine.run_specs(specs)
    incremental_wall = time.perf_counter() - start
    assert len(results) == 1 + len(COMBOS) * len(FRACTIONS)
    inc_stats = engine._incremental.stats

    # 4. Warm re-run of the whole threshold search: every spec answers
    # from the result cache without touching the simulator.
    start = time.perf_counter()
    threshold_search(incremental, COMBOS, FRACTIONS)
    warm_wall = time.perf_counter() - start

    optimized_speedup = serial_wall / optimized_wall \
        if optimized_wall > 0 else 0.0
    warm_speedup = incremental_wall / warm_wall if warm_wall > 0 else 0.0
    report = {
        "grid": {
            "combos": [label for label, _ in COMBOS],
            "added_fractions": list(FRACTIONS),
            "simulated_hours": GRID_HOURS,
        },
        "soa_serial": {
            "wall_s": round(serial_wall, 3),
            "pre_soa_seed_wall_s": PRE_SOA_SERIAL_WALL_S,
            "speedup_vs_seed": round(
                PRE_SOA_SERIAL_WALL_S / serial_wall, 3
            ) if serial_wall > 0 else 0.0,
        },
        "optimized": {
            "workers": PARALLEL_WORKERS,
            "wall_s": round(optimized_wall, 3),
            "speedup_vs_serial": round(optimized_speedup, 3),
        },
        "incremental_cold": {
            "wall_s": round(incremental_wall, 3),
            "speedup_vs_serial": round(
                serial_wall / incremental_wall, 3
            ) if incremental_wall > 0 else 0.0,
            "base_runs": inc_stats.base_runs,
            "resumed_runs": inc_stats.resumed_runs,
            "reused_results": inc_stats.reused_results,
            "cold_runs": inc_stats.cold_runs,
            "saved_sim_s": round(inc_stats.saved_s, 1),
            "replayed_sim_s": round(inc_stats.replayed_s, 1),
        },
        "warm_rerun": {
            "wall_s": round(warm_wall, 4),
            "speedup_vs_incremental_cold": round(warm_speedup, 1),
        },
        "cpu_count": os.cpu_count(),
    }
    SIM_CORE_REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n=== Simulator core: {GRID_HOURS:.0f}h Fig 13 grid ===")
    print(f"SoA serial:        {serial_wall:6.2f} s "
          f"(seed was {PRE_SOA_SERIAL_WALL_S:.1f} s)")
    print(f"optimized (x{PARALLEL_WORKERS}):    {optimized_wall:6.2f} s  "
          f"{optimized_speedup:.2f}x")
    print(f"incremental cold:  {incremental_wall:6.2f} s  "
          f"(saved {inc_stats.saved_s:.0f} sim-s across "
          f"{inc_stats.resumed_runs} resumes)")
    print(f"warm re-run:       {warm_wall:6.3f} s  {warm_speedup:.0f}x")

    benchmark.extra_info.update(report)
    assert warm_speedup >= 3.0, (
        f"warm threshold_search re-run should be >= 3x, "
        f"got {warm_speedup:.2f}x"
    )
    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        assert optimized_speedup >= 2.0, (
            f"expected >= 2x over serial on the optimized path, "
            f"got {optimized_speedup:.2f}x"
        )
