"""Figure 18: number of power-brake events per policy.

Paper: POLCA incurs zero brakes under the standard workload and the
fewest when workloads become 5% more power-intensive; No-cap relies on
the brake entirely and racks up orders of magnitude more events.

Alongside the figure, this module records a short Figure 18-style run —
a 2 h window at the daily peak, No-cap, +5% power, 30% oversubscription,
the scenario where the brake does all the work — to ``TRACE_fig18.jsonl``
at the repo root, which CI uploads as an artifact; the trace is
cross-checked against the run's own ``SimulationResult`` before it is
accepted. The run carries the live alert engine (teed with the JSONL
sink), must produce at least one brake-storm incident — this *is* the
brake-storm scenario — and its metrics + incident snapshot is exported
as an OpenMetrics textfile, ``METRICS_fig18.prom``, uploaded next to
the trace. The same trace is then attributed
(:func:`repro.obs.attribute_run`): the brake intervals must charge at
least one second of stall to at least one request, the decomposition
must conserve exactly, and the span trees are exported as
``PERFETTO_fig18.json`` (Chrome trace-event format, openable in
Perfetto), the third uploaded artifact.
"""

from pathlib import Path

from conftest import print_table
from test_fig13_threshold_search import COMBOS, FRACTIONS

from repro import NoCapPolicy
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.sweeps import threshold_search
from repro.obs import (
    AlertEngine,
    Dashboard,
    JsonlRecorder,
    TeeRecorder,
    attribute_run,
    cross_check,
    incident_table,
    load_events,
    read_ledger,
    summarize_trace,
    top_victims,
    write_chrome_trace,
    write_textfile,
)
from repro.units import hours
from repro.workloads.tracegen import (
    ProductionTraceModel,
    SyntheticTraceGenerator,
)

POLICIES = ("POLCA", "1-Thresh-Low-Pri", "1-Thresh-All", "No-cap")

TRACE_PATH = Path(__file__).resolve().parent.parent / "TRACE_fig18.jsonl"
METRICS_PATH = Path(__file__).resolve().parent.parent / "METRICS_fig18.prom"
PERFETTO_PATH = Path(__file__).resolve().parent.parent / "PERFETTO_fig18.json"
REPORT_PATH = Path(__file__).resolve().parent.parent / "REPORT_fig18.html"
TRACE_HOURS = 2.0


def reproduce_figure18(eval_cache):
    eval_cache.prewarm(
        {"policy_name": name, "power_scale": scale}
        for scale in (1.0, 1.05)
        for name in POLICIES
    )
    counts = {}
    for scale in (1.0, 1.05):
        for name in POLICIES:
            label = name if scale == 1.0 else f"{name}+5%"
            result = eval_cache.run(name, added_fraction=0.30,
                                    power_scale=scale)
            counts[label] = result.power_brake_events
    return counts


def test_fig18_power_brakes(benchmark, eval_cache):
    counts = benchmark.pedantic(
        reproduce_figure18, args=(eval_cache,), rounds=1, iterations=1
    )
    rows = [(label, count) for label, count in counts.items()]
    print_table("Figure 18 — power brake events (30% oversubscription)",
                ["policy", "brake events"], rows)
    # POLCA: zero brakes in the standard scenario.
    assert counts["POLCA"] == 0
    # POLCA: the fewest brakes when workloads get 5% hotter.
    polca_hot = counts["POLCA+5%"]
    for name in ("1-Thresh-Low-Pri", "1-Thresh-All", "No-cap"):
        assert counts[f"{name}+5%"] >= polca_hot
    # No-cap, unprotected, brakes the most in the hot scenario.
    assert counts["No-cap+5%"] == max(
        counts[f"{name}+5%"] for name in POLICIES
    )
    benchmark.extra_info.update(counts)


def test_fig18_trace_artifact(benchmark):
    """Record the brake-heavy Figure 18 scenario to TRACE_fig18.jsonl.

    A 2 h window of the production pattern centered on the daily peak
    (``peak_hour=0.5``), replayed against No-cap at +5% power and 30%
    oversubscription — the corner of Figure 18 where the brake does all
    the work — streamed through a ``JsonlRecorder`` teed with the live
    ``AlertEngine``. The artifact is only kept if ``cross_check``
    re-derives every result counter from it, the recorded run must be
    bit-identical to an unrecorded one, and the scenario must trip at
    least one brake-storm incident, exported (with the run's metrics)
    as the ``METRICS_fig18.prom`` OpenMetrics artifact.
    """
    n_base, added_fraction = 40, 0.30
    deployed = int(round(n_base * (1 + added_fraction)))

    def record_trace():
        utilization = ProductionTraceModel(peak_hour=0.5, seed=1).generate(
            duration_s=hours(TRACE_HOURS)
        )
        synthetic = SyntheticTraceGenerator(
            n_servers=deployed, seed=1
        ).generate(utilization)
        synthetic.validate()
        config = ClusterConfig(
            n_base_servers=n_base, added_fraction=added_fraction,
            power_scale=1.05, seed=1,
        )
        alerts = AlertEngine()
        with JsonlRecorder(str(TRACE_PATH)) as sink:
            recorder = TeeRecorder([sink, alerts])
            traced = ClusterSimulator(config, NoCapPolicy(), recorder).run(
                synthetic.requests, hours(TRACE_HOURS)
            )
        bare = ClusterSimulator(config, NoCapPolicy()).run(
            synthetic.requests, hours(TRACE_HOURS)
        )
        return traced, bare

    traced, bare = benchmark.pedantic(record_trace, rounds=1, iterations=1)
    assert traced.power_brake_events > 0
    cross_check(TRACE_PATH, traced).require_ok()
    assert traced.power_brake_events == bare.power_brake_events
    assert traced.total_energy_j == bare.total_energy_j
    assert traced.total_served == bare.total_served
    # The brake-storm rule must fire on the brake-storm scenario, and
    # the incidents must have landed in the result's snapshot.
    incidents = traced.observability["incidents"]
    storms = [i for i in incidents if i["rule"] == "brake-storm"]
    assert storms, f"no brake-storm incident in {incidents!r}"
    metrics_text = write_textfile(
        str(METRICS_PATH), traced.observability,
        labels={"figure": "18", "scenario": "nocap_hot_30"},
    )
    assert metrics_text.endswith("# EOF\n")
    assert "repro_incidents_total" in metrics_text
    # Causal attribution of the same trace: the brake storm must be
    # *visible* as per-request stall seconds, conservation must be
    # exact, and the span trees export as a valid Perfetto trace.
    report = attribute_run(TRACE_PATH)
    assert report.requests, "no attributable requests in the trace"
    assert not report.conservation_violations
    assert report.unfinished == 0
    stalled = [
        r for r in report.requests
        if r.components_s["brake_stall"] >= 1.0
    ]
    assert stalled, "brake storm attributed <1 s stall to every request"
    perfetto = write_chrome_trace(str(PERFETTO_PATH), TRACE_PATH)
    assert perfetto["traceEvents"], "empty Perfetto export"
    print(f"\n=== Figure 18 trace artifact — {TRACE_PATH.name} "
          f"({TRACE_HOURS:.0f} h No-cap+5% at 30% oversubscription) ===")
    for line in summarize_trace(TRACE_PATH):
        print(f"  {line}")
    print(f"\n=== Live incidents — exported to {METRICS_PATH.name} ===")
    for line in incident_table(incidents):
        print(f"  {line}")
    totals = report.totals_s()
    print(f"\n=== Causal attribution — exported to {PERFETTO_PATH.name} "
          f"({len(perfetto['traceEvents'])} trace events) ===")
    print(f"  {len(stalled)} of {len(report.requests)} served requests "
          f"stalled >= 1 s by the brake; "
          f"brake total {totals['brake_stall']:.1f} s, "
          f"excess energy {report.total_excess_energy_j:.0f} J")
    for victim in top_victims(report, 5):
        print(f"  r{victim.request_id:<6} "
              f"[{victim.priority}/{victim.workload}] "
              f"+{victim.excess_s:8.3f} s excess")


def test_fig18_mission_control_report(benchmark, eval_cache):
    """Render the mission-control dashboard to REPORT_fig18.html.

    One static, dependency-free HTML artifact for the whole benchmark
    session: the Figure 13 sweep curves (recalled from the shared memo
    cache — the grid was already simulated by the earlier benchmarks),
    the Figure 18 brake-storm timeline, the incidents the alert engine
    re-derives from the stored trace, the attribution top victims, the
    kernel-timer profile of a short instrumented run, and the session
    ledger's cache-savings and history panels. Rendering must be
    byte-identical across repeated renders of the same inputs.
    """
    from conftest import LEDGER_PATH

    from repro.exec.profile import profile_kernels

    def build_report():
        points = threshold_search(eval_cache.harness, COMBOS, FRACTIONS)
        dash = Dashboard(
            title="POLCA mission control",
            subtitle="Figure 13 threshold sweep + Figure 18 "
                     "brake-storm scenario",
        )
        dash.add_sweep_panel(points)
        events = (
            load_events(TRACE_PATH) if TRACE_PATH.exists() else []
        )
        if events:
            dash.add_timeline_panel(events=events)
            incidents = AlertEngine().replay(events).incidents
            dash.add_incident_panel([i.to_dict() for i in incidents])
            attribution = attribute_run(events)
            if attribution.requests:
                dash.add_victims_panel(attribution)
        _, stats = profile_kernels(_short_kernel_spec())
        dash.add_kernel_panel(stats)
        entries = (
            read_ledger(str(LEDGER_PATH)) if LEDGER_PATH.exists() else []
        )
        dash.add_savings_panel(entries)
        dash.add_ledger_panel(entries)
        return dash

    dash = benchmark.pedantic(build_report, rounds=1, iterations=1)
    html = dash.render()
    assert html == dash.render(), "dashboard render is not deterministic"
    REPORT_PATH.write_text(html, encoding="utf-8")
    assert "Threshold sweep" in html
    assert "<svg" in html
    print(f"\n=== Mission control — {REPORT_PATH.name} "
          f"({len(html)} bytes, {html.count('<section>')} panels) ===")


def _short_kernel_spec():
    """A 2 h baseline spec for the kernel-timer panel (cheap to run)."""
    from repro.core.sweeps import EvaluationHarness

    return EvaluationHarness(duration_s=hours(2.0)).baseline_spec()
