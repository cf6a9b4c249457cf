"""The experiment ledger: cross-run journaling with zero perturbation.

The contract mirrors the recorder parity guarantee one layer up: a
``SweepEngine`` handed an :class:`~repro.obs.ledger.ExperimentLedger`
must produce results bit-identical to an unledgered engine on the six
reference configurations, while journaling exactly one entry per unique
spec — executed, recalled from cache, retried, or quarantined — with
the provenance flags telling those apart.

The reference configurations run at 1800 s here (not the 240 s the
recorder-parity tests use) because the engine path synthesizes its
request trace from the utilization model, and the synthetic generator's
MAPE acceptance gate needs the longer window at this cluster size.
"""

import json
import math
import os

import pytest

from repro.cluster.simulator import ClusterConfig
from repro.core.baselines import NoCapPolicy, SingleThresholdLowPriPolicy
from repro.core.policy import DualThresholdPolicy, PolcaThresholds
from repro.errors import ConfigurationError
from repro.exec import PolicySpec, RunSpec, SweepEngine
from repro.exec.engine import fork_available
from repro.obs import (
    LEDGER_SCHEMA_VERSION,
    ExperimentLedger,
    MemoryRecorder,
    environment_stamp,
    headline_metrics,
    read_ledger,
)
from tests.test_obs import (
    REFERENCE_CONFIGS,
    assert_results_bit_identical,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork start method"
)

#: A seed no other test uses: the injected worker failure keys off it.
DOOMED_SEED = 424_243

#: PolicySpec names for the reference configurations' policy classes.
POLICY_NAMES = {
    DualThresholdPolicy: "POLCA",
    NoCapPolicy: "No-cap",
    SingleThresholdLowPriPolicy: "1-Thresh-Low-Pri",
}

#: Minimum duration at which the synthetic-trace MAPE gate accepts all
#: six reference configurations (240-600 s windows fail it for some).
REFERENCE_DURATION_S = 1800.0


def reference_spec(name, duration_s=REFERENCE_DURATION_S):
    overrides, policy_factory = REFERENCE_CONFIGS[name]
    return RunSpec(
        config=ClusterConfig(**overrides),
        policy=PolicySpec(POLICY_NAMES[policy_factory]),
        duration_s=duration_s,
    )


def tiny_spec(seed=1, policy=None):
    return RunSpec(
        config=ClusterConfig(n_base_servers=4, seed=seed),
        policy=policy or PolicySpec("No-cap"),
        duration_s=3600.0,
    )


# ----------------------------------------------------------------------
# Parity: a ledgered engine run is bit-identical to an unledgered one
# ----------------------------------------------------------------------
class TestLedgerParity:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_ledger_on_off_bit_identical(self, name):
        spec = reference_spec(name)
        bare = SweepEngine(workers=1).run(spec)
        ledger = ExperimentLedger()
        journaled = SweepEngine(workers=1, ledger=ledger).run(spec)
        assert_results_bit_identical(bare, journaled)
        assert len(ledger) == 1
        assert ledger.entries[0]["digest"] == spec.digest()


# ----------------------------------------------------------------------
# Entry content
# ----------------------------------------------------------------------
class TestLedgerEntries:
    def test_executed_entry_structure(self):
        ledger = ExperimentLedger()
        spec = tiny_spec(seed=11)
        result = SweepEngine(workers=1, ledger=ledger).run(spec)
        (entry,) = ledger.entries
        assert entry["schema"] == LEDGER_SCHEMA_VERSION
        assert entry["kind"] == "run"
        assert entry["digest"] == spec.digest()
        assert entry["policy"] == "No-cap"
        assert entry["thresholds"] is None
        assert entry["seed"] == 11
        assert entry["n_servers"] == spec.config.n_servers
        assert entry["duration_s"] == 3600.0
        assert entry["wall_s"] > 0.0
        assert entry["worker"] == os.getpid()
        assert entry["provenance"] == {
            "cache_hit": False,
            "incremental_resumed": False,
            "incremental_reused": False,
            "retries": 0,
            "quarantined": False,
        }
        # Per-run rusage: CPU deltas are non-negative, RSS is the
        # process high-water mark in whatever unit the kernel used.
        rusage = entry["rusage"]
        assert set(rusage) == {"max_rss_kb", "cpu_user_s", "cpu_system_s"}
        assert rusage["cpu_user_s"] >= 0.0
        assert rusage["max_rss_kb"] > 0.0
        assert entry["metrics"] == headline_metrics(result)
        assert entry["env"] == environment_stamp()
        assert json.dumps(entry)  # every field JSON-serializable

    def test_thresholds_recorded_for_polca(self):
        ledger = ExperimentLedger()
        spec = tiny_spec(policy=PolicySpec(
            "POLCA", PolcaThresholds(t1=0.78, t2=0.88)
        ))
        SweepEngine(workers=1, ledger=ledger).run(spec)
        thresholds = ledger.entries[0]["thresholds"]
        assert thresholds["t1"] == 0.78
        assert thresholds["t2"] == 0.88

    def test_family_and_trace_digests_are_stable(self):
        """Same config family, different policy: family and trace
        digests agree, content digests differ."""
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=1, ledger=ledger)
        engine.run(tiny_spec(policy=PolicySpec("No-cap")))
        engine.run(tiny_spec(policy=PolicySpec("POLCA")))
        a, b = ledger.entries
        assert a["digest"] != b["digest"]
        assert a["family"] == b["family"]
        assert a["trace"] == b["trace"]

    def test_cache_hit_entry(self):
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=1, ledger=ledger)
        spec = tiny_spec()
        engine.run(spec)
        engine.run(spec)
        first, second = ledger.entries
        assert first["provenance"]["cache_hit"] is False
        assert second["provenance"]["cache_hit"] is True
        assert second["wall_s"] == 0.0
        assert second["metrics"] == first["metrics"]

    def test_duplicate_specs_in_batch_share_one_entry(self):
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=1, ledger=ledger)
        a, b = tiny_spec(seed=1), tiny_spec(seed=2)
        engine.run_specs([a, b, a, a])
        assert [e["digest"] for e in ledger.entries] == \
            [a.digest(), b.digest()]

    def test_incremental_provenance_flags(self):
        """A resumed (or tape-reused) family run carries its flag."""
        from repro.core.sweeps import EvaluationHarness
        from repro.units import hours

        ledger = ExperimentLedger()
        harness = EvaluationHarness(
            n_base_servers=10, duration_s=hours(1), seed=1,
            incremental=True, checkpoint_epoch_s=60.0, ledger=ledger,
        )
        engine = harness.engine()
        engine.run_specs([
            harness.spec(PolicySpec("No-cap"), added_fraction=0.3),
            harness.spec(PolicySpec("POLCA"), added_fraction=0.3),
        ])
        assert engine.last_stats.incremental_resumed + \
            engine.last_stats.incremental_reused >= 1
        base, follower = ledger.entries
        assert base["provenance"]["incremental_resumed"] is False
        prov = follower["provenance"]
        assert prov["incremental_resumed"] or prov["incremental_reused"]


# ----------------------------------------------------------------------
# Retries and quarantine appear exactly once, flagged
# ----------------------------------------------------------------------
@needs_fork
class TestLedgerWorkerFailures:
    def test_retried_run_appears_once_with_retry_count(
        self, monkeypatch, tmp_path
    ):
        sentinel = tmp_path / "failed-once"
        monkeypatch.setenv("REPRO_EXEC_FAIL_SEED", str(DOOMED_SEED))
        monkeypatch.setenv("REPRO_EXEC_FAIL_ONCE", str(sentinel))
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=2, ledger=ledger)
        specs = [tiny_spec(DOOMED_SEED), tiny_spec(7), tiny_spec(8)]
        engine.run_specs(specs)
        assert sentinel.exists()
        assert engine.last_stats.retried == 1
        by_digest = {e["digest"]: e for e in ledger.entries}
        assert len(ledger.entries) == len(by_digest) == 3
        doomed = by_digest[specs[0].digest()]
        assert doomed["provenance"]["retries"] == 1
        assert doomed["provenance"]["quarantined"] is False
        for spec in specs[1:]:
            assert by_digest[spec.digest()]["provenance"]["retries"] == 0

    def test_quarantined_run_appears_once_flagged(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_FAIL_SEED", str(DOOMED_SEED))
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=2, ledger=ledger, retries=1)
        specs = [tiny_spec(DOOMED_SEED), tiny_spec(7)]
        engine.run_specs(specs)
        assert engine.last_stats.quarantined == 1
        by_digest = {e["digest"]: e for e in ledger.entries}
        assert len(ledger.entries) == len(by_digest) == 2
        doomed = by_digest[specs[0].digest()]
        assert doomed["provenance"]["quarantined"] is True
        assert doomed["provenance"]["retries"] == 1
        assert doomed["worker"] == os.getpid()  # ran in the parent
        assert doomed["rusage"]["cpu_user_s"] >= 0.0


# ----------------------------------------------------------------------
# The file format
# ----------------------------------------------------------------------
class TestLedgerFile:
    def test_file_round_trip_and_append(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with ExperimentLedger(path) as ledger:
            SweepEngine(workers=1, ledger=ledger).run(tiny_spec(seed=1))
            assert read_ledger(path) == ledger.entries
        # Append mode: a second life grows the same file.
        with ExperimentLedger(path) as ledger:
            SweepEngine(workers=1, ledger=ledger).run(tiny_spec(seed=2))
        entries = read_ledger(path)
        assert len(entries) == 2
        assert entries[0]["seed"] == 1
        assert entries[1]["seed"] == 2

    def test_record_after_close_raises(self, tmp_path):
        ledger = ExperimentLedger(str(tmp_path / "ledger.jsonl"))
        ledger.close()
        ledger.close()  # idempotent
        with pytest.raises(ConfigurationError):
            ledger.record({"kind": "run"})

    def test_memory_ledger_never_closes(self):
        ledger = ExperimentLedger()
        ledger.close()
        ledger.record({"kind": "note"})
        assert len(ledger) == 1

    def test_read_ledger_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 1}\nnot json\n')
        with pytest.raises(ConfigurationError):
            read_ledger(str(path))
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigurationError):
            read_ledger(str(path))

    def test_read_ledger_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"schema": LEDGER_SCHEMA_VERSION + 1, "kind": "run"}
        ) + "\n")
        with pytest.raises(ConfigurationError):
            read_ledger(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gappy.jsonl"
        path.write_text('\n{"schema": 1, "kind": "run"}\n\n')
        assert len(read_ledger(str(path))) == 1


# ----------------------------------------------------------------------
# Satellite: engine_progress edge cases
# ----------------------------------------------------------------------
class TestEngineProgress:
    @staticmethod
    def progress_events(recorder):
        return [e for e in recorder.events
                if e.get("kind") == "engine_progress"]

    def test_eta_finite_from_first_completed_run(self):
        """The very first progress event already extrapolates an ETA —
        never inf, never NaN — and the last one reads zero."""
        recorder = MemoryRecorder()
        engine = SweepEngine(workers=1, recorder=recorder)
        engine.run_specs([tiny_spec(seed=1), tiny_spec(seed=2)])
        events = self.progress_events(recorder)
        assert [e["done"] for e in events] == [1, 2]
        first, last = events[0], events[-1]
        assert math.isfinite(first["eta_s"])
        assert first["eta_s"] >= 0.0
        assert last["eta_s"] == 0.0
        assert all(e["total"] == 2 for e in events)

    def test_all_cache_hit_batch_emits_no_progress(self):
        """A batch resolved entirely from cache simulates nothing, so
        the progress feed stays silent — but the batch event and the
        ledger still account for every recalled run."""
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=1, ledger=ledger)
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        engine.run_specs(specs)
        recorder = MemoryRecorder()
        engine.recorder = recorder
        engine.run_specs(specs)
        assert self.progress_events(recorder) == []
        batches = [e for e in recorder.events
                   if e.get("kind") == "engine_batch"]
        assert len(batches) == 1
        assert batches[0]["cache_hits"] == 2
        assert batches[0]["simulated"] == 0
        hits = [e for e in ledger.entries
                if e["provenance"]["cache_hit"]]
        assert [e["digest"] for e in hits] == \
            [s.digest() for s in specs]

    def test_progress_counts_cache_hits_in_mixed_batch(self):
        recorder = MemoryRecorder()
        engine = SweepEngine(workers=1, recorder=recorder)
        warm = tiny_spec(seed=1)
        engine.run(warm)
        engine.run_specs([warm, tiny_spec(seed=2)])
        events = self.progress_events(recorder)
        # One progress event for the single simulated run; the cache
        # hit is visible in its counter, not as a phantom completion.
        assert events[-1]["done"] == events[-1]["total"] == 1
        assert events[-1]["cache_hits"] == 1
