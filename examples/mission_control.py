"""Mission control: ledger -> regression sentinel -> HTML dashboard.

The cross-run observability loop, end to end, on a deliberately small
threshold sweep:

1. **Journal** — an :class:`~repro.obs.ledger.ExperimentLedger` rides
   along on the sweep engine and appends one schema-versioned JSONL
   entry per run: content digest, policy + seed, wall time, provenance
   flags (cache hit / incremental / retries / quarantine), the
   worker's ``getrusage`` footprint, and the headline result
   metrics. The sweep is run twice, so the second pass journals pure
   cache hits — the savings the ledger makes visible.
2. **Sentinel** — :func:`~repro.obs.regress.check_ledger` diffs the
   fresh journal against a committed baseline under per-metric
   tolerance policies: digests and counters compare exact, wall times
   and rusage get a relative band with a noise floor, host identity is
   ignored. A doctored +10% wall time passes; a doctored energy
   integral flags. (CI runs the same sentinel over the committed
   ``benchmarks/baselines/*.json`` via ``python -m repro.obs.regress``.)
3. **Dashboard** — :class:`~repro.obs.dashboard.Dashboard` renders the
   sweep curves, the cache-savings tiles, and the per-configuration
   run history (with wall-time sparklines) into one dependency-free
   static HTML page whose bytes are identical across repeated renders.

Everything lands in a temporary directory; the console shows the
ledger rows, the sentinel verdicts, and the dashboard byte count.

Run:  python examples/mission_control.py
"""

import json
import tempfile
from pathlib import Path

from repro.core.policy import PolcaThresholds
from repro.core.sweeps import EvaluationHarness, threshold_search
from repro.obs import (
    Dashboard,
    ExperimentLedger,
    check_ledger,
    read_ledger,
)
from repro.units import hours

COMBOS = (
    ("75-85", PolcaThresholds(t1=0.75, t2=0.85)),
    ("80-89", PolcaThresholds(t1=0.80, t2=0.89)),
)
FRACTIONS = (0.2, 0.3)


def run_sweep(ledger):
    """The demo grid (4 POLCA points + the shared baseline), twice."""
    harness = EvaluationHarness(
        n_base_servers=10, duration_s=hours(1), seed=1, ledger=ledger,
    )
    points = threshold_search(harness, COMBOS, FRACTIONS)
    threshold_search(harness, COMBOS, FRACTIONS)  # all cache hits
    return points


def show_ledger(entries):
    print(f"ledger: {len(entries)} entries "
          f"({sum(1 for e in entries if e['provenance']['cache_hit'])} "
          f"cache hits)")
    for entry in entries:
        prov = entry["provenance"]
        flag = "cache-hit" if prov["cache_hit"] else "executed "
        thresholds = entry["thresholds"]
        combo = (f"{thresholds['t1']:.2f}/{thresholds['t2']:.2f}"
                 if thresholds else "-")
        print(f"  {flag}  {entry['policy']:<8} t={combo:<9} "
              f"wall={entry['wall_s']:7.3f}s "
              f"energy={entry['metrics']['total_energy_j']:.4g} J "
              f"{entry['digest'][:12]}")


def run_sentinel(entries):
    """Clean pass, tolerated wall drift, flagged metric drift."""
    clean = check_ledger(entries, entries)
    print(f"\nsentinel vs self: checked {clean.checked} metrics -> "
          f"{'ok' if clean.ok else 'REGRESSED'}")
    assert clean.ok

    noisy = json.loads(json.dumps(entries))
    for entry in noisy:
        entry["wall_s"] *= 1.04  # within the 5% band
    tolerated = check_ledger(noisy, entries)
    print(f"sentinel vs +4% wall time -> "
          f"{'ok (tolerated)' if tolerated.ok else 'REGRESSED'}")
    assert tolerated.ok

    drifted = json.loads(json.dumps(entries))
    # The sentinel judges the *latest* entry per configuration, so the
    # doctored value goes on the final (cache-hit) entry.
    drifted[-1]["metrics"]["total_energy_j"] *= 1.001
    flagged = check_ledger(drifted, entries)
    print(f"sentinel vs 0.1% energy drift -> "
          f"{len(flagged.regressions)} regression(s):")
    for diff in flagged.regressions[:3]:
        print(f"  ! {diff.describe()}")
    assert not flagged.ok  # exact metrics tolerate nothing


def render_dashboard(points, entries, out_dir):
    dash = Dashboard(
        title="POLCA mission control (demo)",
        subtitle="2x2 threshold sweep, 10 base servers, 1 h",
    )
    dash.add_sweep_panel(points)
    dash.add_savings_panel(entries)
    dash.add_ledger_panel(entries)
    html = dash.render()
    assert html == dash.render(), "render must be byte-identical"
    path = dash.write(str(Path(out_dir) / "REPORT_demo.html"))
    print(f"\ndashboard: wrote {path} ({len(html)} bytes, "
          f"{html.count('<section>')} panels, byte-identical renders)")


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        ledger_path = Path(out_dir) / "LEDGER_demo.jsonl"
        with ExperimentLedger(str(ledger_path)) as ledger:
            points = run_sweep(ledger)
        entries = read_ledger(str(ledger_path))
        show_ledger(entries)
        run_sentinel(entries)
        render_dashboard(points, entries, out_dir)


if __name__ == "__main__":
    main()
