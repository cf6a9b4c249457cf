"""Tests of the host-time benchmark harness itself.

The arithmetic tests run in plain pytest; the smoke run goes through the
``benchmark`` fixture, so ``pytest benchmarks/ --benchmark-only`` runs
it too (it needs ``PYTHONPATH=src`` like every benchmark here).
"""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as perf_run  # noqa: E402
import tracer  # noqa: E402


def span(ident, name, parent, start, end, pid=1, phase="workload"):
    return {"id": ident, "name": name, "parent": parent, "pid": pid,
            "phase": phase, "start": start, "end": end}


def test_self_times_subtract_same_process_children_only():
    records = [
        span("1-1", "workload", None, 0.0, 10.0),
        span("1-2", "core.sweeps", "1-1", 1.0, 9.0),
        span("1-3", "exec.engine", "1-2", 2.0, 8.0),
        span("1-4", "exec.execute", "1-3", 2.5, 4.5),
        # A pool worker's span overlaps its parent and must not shorten it.
        span("7-1", "exec.execute", "1-3", 3.0, 7.0, pid=7),
        {"id": "1-5", "name": "cluster.route", "parent": "1-4", "pid": 1,
         "phase": "workload", "calls": 3, "seconds": 0.5},
    ]
    selfs = tracer.self_times(records)
    assert selfs["1-1"] == pytest.approx(2.0)
    assert selfs["1-2"] == pytest.approx(2.0)
    assert selfs["1-3"] == pytest.approx(4.0)
    assert selfs["1-4"] == pytest.approx(1.5)
    assert selfs["7-1"] == pytest.approx(4.0)
    assert selfs["1-5"] == pytest.approx(0.5)
    main = [r for r in records if r["pid"] == 1]
    assert sum(selfs[r["id"]] for r in main) == pytest.approx(10.0)

    metrics = tracer.layer_metrics(records, tracer.Counters())
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.2)
    assert metrics["exec.execute_s"] == pytest.approx(5.5)
    assert metrics["cluster.route_calls"] == 3


def test_tracer_spans_nest_and_wrappers_restore():
    class Target:
        def work(self):
            return 42

    original = vars(Target)["work"]
    t = tracer.Tracer(Path("."), "unused")
    root = t.open("workload")
    t.patch(Target, "work", t.wrap(Target.work, "exec.execute"))
    assert Target().work() == 42
    t.close(root)
    t.restore()
    assert vars(Target)["work"] is original
    records = t.finish()
    inner = [r for r in records if r["name"] == "exec.execute"]
    assert len(inner) == 1 and inner[0]["parent"] == root["id"]


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [5.0, 1.0, 3.0],
                                    [4.0, 1.0, 3.0, 2.0]])
def test_quartiles_small_n(values):
    q1, median, q3 = perf_run.quartiles(values)
    assert median == statistics.median(values)
    if len(values) == 1:
        assert q1 == q3 == values[0]
    else:
        assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert q1 <= median <= q3


def test_end_to_end_takes_each_run_at_its_fastest():
    # The fastest probe pass is half the reference: a host twice as fast.
    probe = perf_run.PROBE_REFERENCE_S
    reports = [
        {"offered_requests": 100, "setup_s": 1.0, "peak_rss_mb": 50.0,
         "run_s": {"a": 1.0, "b": 3.0}, "rerun_times": [0.3, 0.2],
         "probe_times": [probe, probe / 2]},
        {"offered_requests": 100, "setup_s": 3.0, "peak_rss_mb": 52.0,
         "run_s": {"a": 2.0, "b": 1.0}, "rerun_times": [0.4],
         "probe_times": [probe]},
    ]
    metrics = perf_run.end_to_end(reports)
    assert metrics["requests_per_s"] == (25.0, [25.0, pytest.approx(100 / 3)])
    assert metrics["rerun_s"] == (0.4, [0.3, 0.2, 0.4])
    assert metrics["setup_s"] == (2.0, [1.0, 3.0])
    assert metrics["peak_rss_mb"][0] == 51.0


def test_check_runs_counts_mismatches():
    reference = {"baseline": {"e": "1.0"}, "POLCA": {"e": "2.0"}}
    same = {"fingerprints": dict(reference), "mismatches": []}
    assert perf_run.check_runs(reference, same) == (2, 0)
    rerun_bad = {"fingerprints": dict(reference), "mismatches": ["POLCA"]}
    assert perf_run.check_runs(reference, rerun_bad) == (2, 1)
    drifted = {"fingerprints": {"baseline": {"e": "1.5"}}, "mismatches": []}
    assert perf_run.check_runs(reference, drifted) == (2, 2)


def test_fingerprint_mismatch_fails_the_run(monkeypatch, capsys):
    calls = []

    def fake_child(workload, seed, traced, verify, smoke):
        calls.append(traced)
        energy = "2.0" if len(calls) == 3 else "1.0"
        return {
            "workers": 1, "mismatches": [],
            "fingerprints": {"baseline": {"e": "0.5"}, "POLCA": {"e": energy}},
            "wall_s": 2.0 + len(calls), "setup_s": 1.0, "rerun_times": [0.1],
            "run_s": {"baseline": 0.4, "POLCA": 0.5}, "probe_times": [0.01],
            "peak_rss_mb": 50.0, "offered_requests": 1000,
        }

    monkeypatch.setattr(perf_run, "run_child", fake_child)
    code = perf_run.main(["--workload", "fig13_serial", "--seed", "2",
                          "--seconds", "0"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 6 and result["failed"] == 1
    frac = next(line for line in out if " failed_frac " in line)
    assert float(frac.split()[2]) == pytest.approx(1 / 6)


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(perf_run, "ROOT", tmp_path)
    assert perf_run.main(["--seconds", "0"]) == 2


def test_smoke_run_prints_every_metric(benchmark):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(set(names)) == len(names)

    def smoke():
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke",
             "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )

    done = benchmark.pedantic(smoke, rounds=1, iterations=1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    printed = {
        tuple(line.split()[:2]) for line in lines[:-1]
        if not line.startswith("#")
    }
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            assert (workload, metric["name"]) in printed
    # With --trace 1 the JSON carries exactly the per-layer metrics.
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in workloads for m in spec["per_layer"]
    }
