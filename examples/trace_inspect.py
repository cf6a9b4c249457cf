"""Inspect a simulator event trace: timelines, summaries, cross-checks.

Every ``ClusterSimulator`` run can stream its internal decisions — control
ticks, cap/brake command lifecycles, fallback windows, served and dropped
requests, server churn — to a ``TraceRecorder`` (see ``repro.obs``). This
tool renders such a trace for a human:

* ``python examples/trace_inspect.py trace.jsonl`` summarizes a recorded
  JSONL trace and reconstructs its brake and fallback timelines
  (``--kinds control,serve`` restricts the summary to those kinds).
* ``python examples/trace_inspect.py diff a.jsonl b.jsonl`` compares two
  traces event by event and reports the *first* divergent event — tick,
  kind, field, and both values (exit code 1 when they diverge, 0 when
  identical) — the one-command root-cause tool for two runs that should
  have been bit-identical.
* ``python examples/trace_inspect.py spans trace.jsonl`` reconstructs
  per-request span trees (arrival → queue-wait → phases, each phase
  annotated with the cap/brake rate intervals that repriced it) —
  ``--request-id N`` prints one request (exit 1 when absent).
* ``python examples/trace_inspect.py attrib trace.jsonl`` attributes
  realized latency to queue-wait / service / cap / brake / fallback and
  prints per-priority, per-workload, and per-action tables plus the
  top victims (exit 1 when the trace carries no span events).
* ``python examples/trace_inspect.py trips trace.jsonl`` renders the
  power-delivery protection timeline — breaker trips (with the affected
  subtree and lost capacity), emergency shed windows, deferrals, and
  staged re-energization (exit 1 when the trace has no protection
  events).
* ``python examples/trace_inspect.py ledger ledger.jsonl`` prints the
  experiment ledger — one row per recorded run with policy, seed, wall
  time, provenance (cache hit / incremental / retries / quarantine),
  and headline metrics (``--policy NAME`` filters; exit 1 when nothing
  matches).
* ``python examples/trace_inspect.py query trace.jsonl`` runs the trace
  query engine: filter by ``--kinds``/``--since``/``--until``/
  ``--server``/``--where field=value``, project with
  ``--fields``, aggregate with ``--group-by`` + ``--agg`` (count,
  sum:f, mean:f, pNN:f). Rows print as sorted-key JSON lines (exit 0:
  results printed, 1: empty result set, 2: invalid query).
* ``python examples/trace_inspect.py report trace.jsonl --out r.html``
  renders a trace into the static mission-control HTML dashboard
  (timeline, summary, attribution victims; ``--ledger`` adds ledger
  panels; exit 1 when the trace is empty).
* ``python examples/trace_inspect.py`` (no argument) records a fresh demo
  trace from a short faulted run, writes it next to the working
  directory (or ``--out``), renders it, and then *cross-checks* it: every
  counter in the run's ``SimulationResult`` is re-derived from the event
  stream and compared (two independent accounting paths that must agree).

Run:  python examples/trace_inspect.py \
          [diff A B | spans T | attrib T | trips T | ledger L |
           query T | report T | trace.jsonl] [--out f]
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.policy import DualThresholdPolicy
from repro.errors import ReproError
from repro.faults import FaultPlan, ReliabilityConfig, TelemetryFaultSpec
from repro.obs import (
    JsonlRecorder,
    SpanBuilder,
    attribute_run,
    attribution_table,
    cap_timeline,
    cross_check,
    diff_traces,
    format_divergence,
    load_events,
    render_span_tree,
    summarize_trace,
    top_victims,
)
from repro.workloads.requests import RequestSampler


def demo_requests(rate_per_s, duration_s, seed=0):
    rng = np.random.default_rng(seed)
    sampler = RequestSampler(seed=seed)
    t, arrivals = 0.0, []
    while True:
        t += float(rng.exponential(1.0 / rate_per_s))
        if t >= duration_s:
            break
        arrivals.append(t)
    return sampler.sample_many(arrivals)


def render(events) -> None:
    """Print the human-readable view of an event stream."""
    print("== Trace summary ==")
    for line in summarize_trace(events):
        print(f"  {line}")

    commands = cap_timeline(events)
    if commands:
        lag = [c.landed_at - c.issued_at for c in commands
               if c.landed_at is not None]
        reissued = sum(1 for c in commands if c.reissues)
        print(f"\n== Cap commands: {len(commands)} "
              f"(mean landing lag {np.mean(lag):.1f} s, "
              f"{reissued} needed re-issue) ==")


def demo(out_path: str) -> None:
    """Record, render, and cross-check a fresh demo trace."""
    duration_s = 300.0
    config = ClusterConfig(
        n_base_servers=8,
        seed=3,
        # A telemetry blackout makes the trace worth reading: the
        # controller degrades to safe caps, then engages the brake.
        fault_plan=FaultPlan(telemetry=TelemetryFaultSpec(
            dropout_windows=((30.0, 150.0),)
        )),
        reliability=ReliabilityConfig(
            fallback_after_ticks=3, brake_after_stale_s=10.0
        ),
    )
    requests = demo_requests(4.0, duration_s, seed=3)
    print(f"Recording a {duration_s:.0f} s faulted demo run "
          f"({len(requests)} requests, 120 s telemetry blackout) "
          f"to {out_path} ...\n")
    with JsonlRecorder(out_path) as recorder:
        result = ClusterSimulator(
            config, DualThresholdPolicy(), recorder=recorder
        ).run(requests, duration_s)

    render(load_events(out_path))

    print("\n== Cross-check: trace vs SimulationResult ==")
    report = cross_check(out_path, result)
    for line in report.summary_lines():
        print(f"  {line}")
    report.require_ok()
    print("every counter re-derived from the trace matches the result")


def diff_main(argv) -> int:
    """The ``diff`` subcommand: first divergent event of two traces."""
    parser = argparse.ArgumentParser(
        prog="trace_inspect.py diff",
        description="Localize the first divergent event between two "
                    "JSONL traces (exit 0: identical, 1: divergent).",
    )
    parser.add_argument("trace_a", help="first JSONL trace")
    parser.add_argument("trace_b", help="second JSONL trace")
    args = parser.parse_args(argv)
    divergence = diff_traces(
        load_events(args.trace_a), load_events(args.trace_b)
    )
    for line in format_divergence(
        divergence, label_a=args.trace_a, label_b=args.trace_b
    ):
        print(line)
    return 0 if divergence is None else 1


def spans_main(argv) -> int:
    """The ``spans`` subcommand: per-request span trees from a trace."""
    parser = argparse.ArgumentParser(
        prog="trace_inspect.py spans",
        description="Reconstruct per-request span trees (phases and "
                    "cap/brake rate intervals) from a JSONL trace.",
    )
    parser.add_argument("trace", help="JSONL trace with span events")
    parser.add_argument(
        "--request-id", type=int, default=None,
        help="print only this request's span (exit 1 when absent)",
    )
    parser.add_argument(
        "--limit", type=int, default=10,
        help="how many spans to print without --request-id (default 10)",
    )
    args = parser.parse_args(argv)
    builder = SpanBuilder.from_source(args.trace)
    if args.request_id is not None:
        span = builder.get(args.request_id)
        if span is None:
            print(f"no span for request {args.request_id} in {args.trace}",
                  file=sys.stderr)
            return 1
        for line in render_span_tree(span):
            print(line)
        return 0
    spans = builder.build()
    if not spans:
        print(f"no span events in {args.trace} (recorded before the "
              f"span layer, or filtered)", file=sys.stderr)
        return 1
    for span in spans[:max(args.limit, 0)]:
        for line in render_span_tree(span):
            print(line)
        print()
    if len(spans) > args.limit:
        print(f"... {len(spans) - args.limit} more "
              f"(--limit to see them, --request-id for one)")
    return 0


def attrib_main(argv) -> int:
    """The ``attrib`` subcommand: causal latency/energy attribution."""
    parser = argparse.ArgumentParser(
        prog="trace_inspect.py attrib",
        description="Decompose realized request latency into queue-wait "
                    "/ service / cap / brake / fallback seconds, "
                    "attributed to the responsible action.",
    )
    parser.add_argument("trace", help="JSONL trace with span events")
    parser.add_argument(
        "--top", type=int, default=5,
        help="how many top victims to print (default 5)",
    )
    args = parser.parse_args(argv)
    report = attribute_run(args.trace)
    if not report.requests and not report.dropped:
        print(f"no span events in {args.trace} (recorded before the "
              f"span layer, or filtered)", file=sys.stderr)
        return 1
    totals = report.totals_s()
    print(f"== Attribution: {len(report.requests)} served, "
          f"{report.dropped} dropped, {report.unfinished} unfinished ==")
    for component, seconds in totals.items():
        print(f"  {component:<13} {seconds:12.3f} s")
    print(f"  excess energy {report.total_excess_energy_j:12.1f} J")
    conservation = "exact" if not report.conservation_violations else \
        f"{len(report.conservation_violations)} VIOLATIONS"
    print(f"  conservation  {conservation}")
    for by in ("priority", "workload", "action"):
        print(f"\n== By {by} ==")
        for line in attribution_table(report, by=by):
            print(f"  {line}")
    victims = top_victims(report, max(args.top, 1))
    if victims:
        print(f"\n== Top {len(victims)} victims (excess seconds) ==")
        for victim in victims:
            worst = max(
                victim.by_action_s.items(), key=lambda kv: kv[1]
            )[0] if victim.by_action_s else "-"
            print(f"  r{victim.request_id:<6} "
                  f"[{victim.priority}/{victim.workload}] "
                  f"+{victim.excess_s:8.3f} s  "
                  f"(+{victim.excess_energy_j:9.1f} J)  worst: {worst}")
    return 0


def trips_main(argv) -> int:
    """The ``trips`` subcommand: power-delivery protection timeline."""
    parser = argparse.ArgumentParser(
        prog="trace_inspect.py trips",
        description="Render breaker trips, emergency shed windows, and "
                    "staged re-energization from a JSONL trace of a "
                    "protected run (exit 1 when the trace carries no "
                    "protection events).",
    )
    parser.add_argument("trace", help="JSONL trace of a protected run")
    args = parser.parse_args(argv)
    events = load_events(args.trace)
    kinds = (
        "trip", "trip_risk", "shed_engage", "shed_release", "shed_defer",
        "reenergize", "reenergize_done",
    )
    timeline = [e for e in events if e.get("kind") in kinds]
    if not timeline:
        print(f"no power-delivery protection events in {args.trace} "
              f"(run had no ClusterConfig.protection, or the recorder "
              f"filtered them)", file=sys.stderr)
        return 1
    trips = [e for e in timeline if e["kind"] == "trip"]
    deferrals = [e for e in timeline if e["kind"] == "shed_defer"]
    shed_drops = sum(
        1 for e in events
        if e.get("kind") == "drop" and e.get("reason") == "shed"
    )
    print(f"== Protection timeline: {len(trips)} trip(s), "
          f"{len(deferrals)} deferral(s), {shed_drops} shed drop(s) ==")
    for event in timeline:
        t = float(event["t"])
        kind = event["kind"]
        if kind == "trip":
            cascade = " CASCADE" if event.get("cascaded") else ""
            print(f"  t={t:9.1f}s TRIP{cascade} {event['device']} "
                  f"({event['device_level']}, "
                  f"{float(event['capacity_w']):.0f} W limit, "
                  f"overload x{float(event['overload']):.2f})")
            print(f"               {event['servers_offline']} server(s) "
                  f"offline, {event['dropped']} request(s) lost, "
                  f"{float(event['offline_capacity_w']):.0f} W "
                  f"({float(event['offline_fraction']):.1%}) of capacity "
                  f"de-energized; restore at "
                  f"t={float(event['restore_at']):.1f}s")
        elif kind == "trip_risk":
            state = "AT RISK" if event.get("at_risk") else "cleared"
            print(f"  t={t:9.1f}s risk {state}: {event['device']} "
                  f"accumulator {float(event['accumulator']):.2f} "
                  f"(overload x{float(event['overload']):.2f})")
        elif kind == "shed_engage":
            print(f"  t={t:9.1f}s emergency shed ENGAGED "
                  f"(low-priority dropped/deferred, safe caps applied)")
        elif kind == "shed_release":
            print(f"  t={t:9.1f}s emergency shed released")
        elif kind == "shed_defer":
            print(f"  t={t:9.1f}s deferred r{event['request_id']} "
                  f"[{event['priority']}/{event['workload']}] "
                  f"by {float(event['delay_s']):.0f}s "
                  f"(deferral #{event['deferrals']})")
        elif kind == "reenergize":
            servers = ", ".join(event.get("servers") or []) or "none"
            print(f"  t={t:9.1f}s re-energize {event['device']} "
                  f"step {event['step']}: {servers}")
        elif kind == "reenergize_done":
            print(f"  t={t:9.1f}s {event['device']} fully re-energized")
    return 0


def ledger_main(argv) -> int:
    """The ``ledger`` subcommand: print the experiment run journal."""
    parser = argparse.ArgumentParser(
        prog="trace_inspect.py ledger",
        description="Print an experiment ledger (JSONL run journal "
                    "recorded by SweepEngine/EvaluationHarness): one "
                    "row per run with provenance and headline metrics "
                    "(exit 1 when no entries match).",
    )
    parser.add_argument("ledger", help="JSONL experiment ledger")
    parser.add_argument(
        "--policy", default=None,
        help="only entries for this policy name",
    )
    parser.add_argument(
        "--limit", type=int, default=20,
        help="most recent rows to print (default 20)",
    )
    args = parser.parse_args(argv)
    from repro.obs import read_ledger

    entries = [
        e for e in read_ledger(args.ledger)
        if e.get("kind") == "run"
        and (args.policy is None or e.get("policy") == args.policy)
    ]
    if not entries:
        wanted = f" for policy {args.policy!r}" if args.policy else ""
        print(f"no ledger entries{wanted} in {args.ledger}",
              file=sys.stderr)
        return 1
    shown = entries[-max(args.limit, 1):]
    print(f"== Experiment ledger: {len(entries)} run(s), "
          f"showing last {len(shown)} ==")
    print(f"  {'policy':<22}{'seed':>5}{'wall_s':>9}{'prov':>6}"
          f"{'retry':>6}{'brakes':>7}{'energy_J':>13}  digest")
    for entry in shown:
        prov = entry.get("provenance") or {}
        metrics = entry.get("metrics") or {}
        flags = "".join((
            "C" if prov.get("cache_hit") else "",
            "I" if prov.get("incremental_resumed")
            or prov.get("incremental_reused") else "",
            "Q" if prov.get("quarantined") else "",
        )) or "-"
        print(f"  {str(entry.get('policy')):<22}"
              f"{entry.get('seed')!s:>5}"
              f"{float(entry.get('wall_s') or 0.0):>9.3f}"
              f"{flags:>6}"
              f"{prov.get('retries', 0):>6}"
              f"{metrics.get('power_brake_events')!s:>7}"
              f"{float(metrics.get('total_energy_j') or 0.0):>13.1f}"
              f"  {str(entry.get('digest'))[:12]}")
    print("  provenance flags: C cache hit, I incremental, "
          "Q quarantined")
    return 0


def query_main(argv) -> int:
    """The ``query`` subcommand: the trace query engine on the CLI."""
    parser = argparse.ArgumentParser(
        prog="trace_inspect.py query",
        description="Filter, project, and aggregate a JSONL trace with "
                    "the trace query engine. Rows print as sorted-key "
                    "JSON lines (exit 0: results printed, 1: empty "
                    "result set, 2: invalid query).",
    )
    parser.add_argument("trace", help="JSONL trace to query")
    parser.add_argument(
        "--kinds", default=None,
        help="comma-separated event kinds to keep",
    )
    parser.add_argument(
        "--since", type=float, default=None,
        help="keep events with t >= SINCE (seconds)",
    )
    parser.add_argument(
        "--until", type=float, default=None,
        help="keep events with t < UNTIL (seconds)",
    )
    parser.add_argument(
        "--server", default=None,
        help="keep events of this server id (e.g. s12)",
    )
    parser.add_argument(
        "--where", action="append", default=[], metavar="FIELD=VALUE",
        help="field equality filter (repeatable; VALUE parses as JSON, "
             "falling back to a bare string)",
    )
    parser.add_argument(
        "--fields", default=None,
        help="comma-separated projection of event fields",
    )
    parser.add_argument(
        "--group-by", default=None,
        help="comma-separated group-by fields (aggregates each group)",
    )
    parser.add_argument(
        "--agg", action="append", default=[],
        help="aggregation per group: count, sum:f, mean:f, min:f, "
             "max:f, pNN:f (repeatable; default count)",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="print at most this many rows",
    )
    args = parser.parse_args(argv)
    from repro.errors import ConfigurationError
    from repro.obs import filter_events, group_aggregate, project

    def split(csv):
        return [part.strip() for part in csv.split(",") if part.strip()]

    where = {}
    for clause in args.where:
        field, sep, value = clause.partition("=")
        if not sep or not field:
            raise ConfigurationError(
                f"--where takes FIELD=VALUE, got {clause!r}"
            )
        try:
            where[field] = json.loads(value)
        except json.JSONDecodeError:
            where[field] = value
    if args.agg and args.group_by is None:
        raise ConfigurationError("--agg requires --group-by")
    rows = filter_events(
        load_events(args.trace),
        kinds=split(args.kinds) if args.kinds is not None else None,
        t_min=args.since,
        t_max=args.until,
        server=args.server,
        where=where or None,
    )
    if args.group_by is not None:
        rows = group_aggregate(
            rows, by=split(args.group_by), aggs=args.agg or ("count",)
        )
    elif args.fields is not None:
        rows = project(rows, split(args.fields))
    if not rows:
        print(f"no matching events in {args.trace}", file=sys.stderr)
        return 1
    if args.limit is not None:
        rows = rows[:max(args.limit, 0)]
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def report_main(argv) -> int:
    """The ``report`` subcommand: trace -> mission-control HTML."""
    parser = argparse.ArgumentParser(
        prog="trace_inspect.py report",
        description="Render a JSONL trace (and optionally an "
                    "experiment ledger) into the static mission-"
                    "control HTML dashboard (exit 1 when the trace "
                    "has no events).",
    )
    parser.add_argument("trace", help="JSONL trace to render")
    parser.add_argument(
        "--out", default="REPORT.html",
        help="output HTML path (default REPORT.html)",
    )
    parser.add_argument(
        "--ledger", default=None,
        help="also render this experiment ledger's history panels",
    )
    parser.add_argument(
        "--title", default="Mission control",
        help="page title (default 'Mission control')",
    )
    args = parser.parse_args(argv)
    from repro.obs import Dashboard, read_ledger

    events = load_events(args.trace)
    if not events:
        print(f"no events in {args.trace}", file=sys.stderr)
        return 1
    dash = Dashboard(title=args.title, subtitle=args.trace)
    dash.add_timeline_panel(events=events)
    dash.add_panel(
        "Trace summary",
        "<pre>" + "\n".join(summarize_trace(events)) + "</pre>",
    )
    attribution = attribute_run(events)
    if attribution.requests:
        dash.add_victims_panel(attribution)
    if args.ledger is not None:
        entries = read_ledger(args.ledger)
        dash.add_savings_panel(entries)
        dash.add_ledger_panel(entries)
    dash.write(args.out)
    print(f"wrote {args.out} ({len(dash.render())} bytes, "
          f"{len(events)} events)")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] == "diff":
            return diff_main(argv[1:])
        if argv and argv[0] == "spans":
            return spans_main(argv[1:])
        if argv and argv[0] == "attrib":
            return attrib_main(argv[1:])
        if argv and argv[0] == "trips":
            return trips_main(argv[1:])
        if argv and argv[0] == "ledger":
            return ledger_main(argv[1:])
        if argv and argv[0] == "query":
            return query_main(argv[1:])
        if argv and argv[0] == "report":
            return report_main(argv[1:])

        parser = argparse.ArgumentParser(
            description="Summarize a simulator JSONL trace, or record "
                        "and cross-check a demo trace when no path is "
                        "given. Subcommands: 'diff' compares two "
                        "traces; 'spans' renders per-request span "
                        "trees; 'attrib' attributes latency and energy "
                        "to cap/brake actions; 'trips' renders the "
                        "power-delivery protection timeline; 'ledger' "
                        "prints an experiment run journal; 'query' "
                        "filters, projects, and aggregates a trace; "
                        "'report' renders a trace as a static HTML "
                        "dashboard."
        )
        parser.add_argument(
            "trace", nargs="?", default=None,
            help="path to a JSONL trace recorded with JsonlRecorder",
        )
        parser.add_argument(
            "--kinds", default=None,
            help="comma-separated event kinds to keep when summarizing",
        )
        parser.add_argument(
            "--out", default=None,
            help="where the demo trace is written (default: a temp file)",
        )
        args = parser.parse_args(argv)

        if args.trace is not None:
            events = load_events(args.trace)
            if args.kinds is not None:
                keep = {k.strip() for k in args.kinds.split(",") if k.strip()}
                events = [e for e in events if e.get("kind") in keep]
            render(events)
            return 0

        if args.out is not None:
            demo(args.out)
            return 0
        handle, path = tempfile.mkstemp(
            suffix=".jsonl", prefix="trace_demo_"
        )
        os.close(handle)
        try:
            demo(path)
        finally:
            os.unlink(path)
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
