"""Trace and result diffing: localize the first divergent event.

The acceptance check for the tool is real: two simulator runs that
differ only in their seed are diffed, and the reported divergence must
be the true first difference — every event before it equal, the event
at it unequal — with the differing field and both values surfaced.
"""

from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.baselines import NoCapPolicy
from repro.obs import MemoryRecorder, diff_traces
from repro.obs.diff import Divergence, diff_results, format_divergence
from tests.test_obs import make_requests


def seeded_run(seed, record=True):
    config = ClusterConfig(n_base_servers=8, seed=seed, power_scale=1.05)
    recorder = MemoryRecorder() if record else None
    requests = make_requests(4.0, 120.0, seed=0)  # same workload
    if recorder is None:
        result = ClusterSimulator(config, NoCapPolicy()).run(
            requests, 120.0
        )
    else:
        result = ClusterSimulator(
            config, NoCapPolicy(), recorder=recorder
        ).run(requests, 120.0)
    return recorder, result


class TestDiffTraces:
    def test_identical_traces_diff_to_none(self):
        events = [{"kind": "serve", "t": 1.0, "latency_s": 2.0}]
        assert diff_traces(events, [dict(events[0])]) is None
        assert diff_traces([], []) is None

    def test_reports_first_differing_field_with_both_values(self):
        a = [
            {"kind": "control", "t": 2.0, "utilization": 0.8},
            {"kind": "serve", "t": 3.0, "latency_s": 1.0, "server": 4},
        ]
        b = [
            {"kind": "control", "t": 2.0, "utilization": 0.8},
            {"kind": "serve", "t": 3.0, "latency_s": 1.5, "server": 4},
        ]
        divergence = diff_traces(a, b)
        assert divergence == Divergence(
            index=1, field="latency_s", a=1.0, b=1.5, t=3.0, kind="serve",
        )

    def test_kind_mismatch_wins_over_payload(self):
        a = [{"kind": "serve", "t": 1.0, "latency_s": 9.9}]
        b = [{"kind": "drop", "t": 1.0, "reason": "saturated"}]
        divergence = diff_traces(a, b)
        assert divergence.field == "<kind>"
        assert (divergence.a, divergence.b) == ("serve", "drop")

    def test_missing_key_reported(self):
        a = [{"kind": "serve", "t": 1.0, "latency_s": 1.0}]
        b = [{"kind": "serve", "t": 1.0}]
        divergence = diff_traces(a, b)
        assert divergence.field == "<missing>"
        assert divergence.a == 1.0

    def test_prefix_trace_reports_end_of_trace(self):
        a = [{"kind": "serve", "t": 1.0}]
        b = [{"kind": "serve", "t": 1.0}, {"kind": "drop", "t": 2.0}]
        divergence = diff_traces(a, b)
        assert divergence.field == "<end-of-trace>"
        assert (divergence.a, divergence.b) == (1, 2)
        assert divergence.index == 1
        assert divergence.kind == "drop"
        assert divergence.t == 2.0

    def test_seed_differing_runs_localize_the_true_first_divergence(self):
        trace_a, _ = seeded_run(seed=0)
        trace_b, _ = seeded_run(seed=1)
        divergence = diff_traces(trace_a.events, trace_b.events)
        assert divergence is not None
        index = divergence.index
        # Correctness of "first": everything before it is identical,
        # the event at it differs in exactly the reported field.
        assert trace_a.events[:index] == trace_b.events[:index]
        ea, eb = trace_a.events[index], trace_b.events[index]
        assert ea != eb
        if divergence.field not in ("<kind>", "<missing>"):
            assert ea[divergence.field] == divergence.a
            assert eb[divergence.field] == divergence.b
            assert ea["kind"] == eb["kind"] == divergence.kind
        assert divergence.t == ea.get("t")

    def test_same_seed_runs_diff_to_none(self):
        trace_a, _ = seeded_run(seed=0)
        trace_b, _ = seeded_run(seed=0)
        assert diff_traces(trace_a.events, trace_b.events) is None


class TestDiffResults:
    def test_identical_results_diff_to_none(self):
        _, a = seeded_run(seed=0, record=False)
        _, b = seeded_run(seed=0, record=False)
        assert diff_results(a, b) is None

    def test_seed_differing_results_report_a_dotted_path(self):
        _, a = seeded_run(seed=0, record=False)
        _, b = seeded_run(seed=1, record=False)
        divergence = diff_results(a, b)
        assert divergence is not None
        assert divergence.index == -1
        assert divergence.field  # a dotted path into the codec dict
        assert divergence.a != divergence.b

    def test_observability_differences_are_visible(self):
        _, bare = seeded_run(seed=0, record=False)
        recorder, traced = seeded_run(seed=0)
        divergence = diff_results(bare, traced)
        assert divergence is not None
        assert divergence.field.startswith("observability")


class TestFormatDivergence:
    def test_identical(self):
        assert format_divergence(None) == ["streams are identical"]

    def test_event_divergence_lines(self):
        lines = format_divergence(
            Divergence(index=3, field="latency_s", a=1.0, b=2.0,
                       t=7.5, kind="serve"),
            label_a="run-a.jsonl", label_b="run-b.jsonl",
        )
        assert lines[0] == \
            "first divergence at event [3] t=7.500s kind=serve"
        assert lines[1:] == [
            "  field: latency_s",
            "  run-a.jsonl: 1.0",
            "  run-b.jsonl: 2.0",
        ]

    def test_end_of_trace_lines(self):
        lines = format_divergence(
            Divergence(index=5, field="<end-of-trace>", a=5, b=9,
                       t=12.0, kind="drop"),
        )
        assert lines[0] == "A ends early: A has 5 events, B has 9"
        assert lines[1] == "first unmatched event: [5] drop (t=12.000s)"

    def test_result_divergence_lines(self):
        lines = format_divergence(
            Divergence(index=-1, field="total_energy_j", a=1.0, b=2.0),
        )
        assert lines[0] == "results diverge"
        assert "  field: total_energy_j" in lines
