"""SweepEngine worker robustness: crashes, hangs, and quarantine.

A sweep worker can die (OOM killer, segfault in a native dependency) or
wedge (runaway allocation thrashing swap). The engine must survive
both without corrupting the batch: the offending spec is retried on a
fresh pool, then — retries exhausted — quarantined to serial in-parent
execution, and every result stays bit-identical to a healthy run.

The failure is injected through the ``REPRO_EXEC_FAIL_*`` environment
hook in :func:`repro.exec.engine._maybe_fail_for_test`, which only
fires inside pool workers for the spec whose seed matches — the
quarantine path and unrelated specs are untouched.
"""

import pytest

from repro.cluster.simulator import ClusterConfig
from repro.errors import ConfigurationError
from repro.exec import PolicySpec, RunSpec, SweepEngine, execute_spec
from repro.exec.engine import fork_available
from repro.obs import ExperimentLedger
from repro.units import hours

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires fork start method"
)

#: A seed no other test uses: the injected failure keys off it.
DOOMED_SEED = 424_242


def tiny_spec(seed):
    return RunSpec(
        config=ClusterConfig(n_base_servers=4, seed=seed),
        policy=PolicySpec("No-cap"),
        duration_s=hours(1),
    )


def provenance(ledger, spec):
    """The ledger provenance of ``spec``'s single entry."""
    (entry,) = [e for e in ledger.entries if e["digest"] == spec.digest()]
    return entry["provenance"]


def assert_results_healthy(results, specs):
    """Every slot matches a clean serial execution, bit for bit."""
    for result, spec in zip(results, specs):
        clean = execute_spec(spec)
        assert (result.power_series.values ==
                clean.power_series.values).all()
        assert result.total_energy_j == clean.total_energy_j
        assert result.total_served == clean.total_served


@needs_fork
class TestWorkerFailures:
    def test_crashed_worker_is_retried_and_batch_completes(
        self, monkeypatch, tmp_path
    ):
        """A worker killed mid-run costs one retry, nothing else."""
        sentinel = tmp_path / "failed-once"
        monkeypatch.setenv("REPRO_EXEC_FAIL_SEED", str(DOOMED_SEED))
        monkeypatch.setenv("REPRO_EXEC_FAIL_ONCE", str(sentinel))
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=2, ledger=ledger)
        specs = [tiny_spec(DOOMED_SEED), tiny_spec(7), tiny_spec(8)]
        results = engine.run_specs(specs)
        assert sentinel.exists()  # the injected crash actually fired
        assert engine.last_stats.retried == 1
        assert engine.last_stats.quarantined == 0
        assert engine.last_stats.simulated == 3
        doomed = provenance(ledger, specs[0])
        assert doomed["retries"] == 1
        assert doomed["quarantined"] is False
        assert_results_healthy(results, specs)

    def test_poisoned_spec_is_quarantined_to_serial(self, monkeypatch):
        """Retries exhausted: the spec falls back to the parent, where
        the run still succeeds (the failure only fires in workers)."""
        monkeypatch.setenv("REPRO_EXEC_FAIL_SEED", str(DOOMED_SEED))
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=2, ledger=ledger, retries=1)
        specs = [tiny_spec(DOOMED_SEED), tiny_spec(7)]
        results = engine.run_specs(specs)
        assert engine.last_stats.retried == 1
        assert engine.last_stats.quarantined == 1
        doomed = provenance(ledger, specs[0])
        assert doomed["retries"] == 1
        assert doomed["quarantined"] is True
        assert_results_healthy(results, specs)

    def test_hung_worker_times_out_and_is_quarantined(self, monkeypatch):
        """A wedged worker trips ``run_timeout_s`` instead of stalling
        the sweep forever."""
        monkeypatch.setenv("REPRO_EXEC_FAIL_SEED", str(DOOMED_SEED))
        monkeypatch.setenv("REPRO_EXEC_FAIL_MODE", "hang")
        ledger = ExperimentLedger()
        engine = SweepEngine(
            workers=2, ledger=ledger, run_timeout_s=5.0, retries=0
        )
        specs = [tiny_spec(DOOMED_SEED), tiny_spec(7)]
        results = engine.run_specs(specs)
        assert engine.last_stats.quarantined == 1
        assert engine.last_stats.retried == 0
        doomed = provenance(ledger, specs[0])
        assert doomed["retries"] == 0
        assert doomed["quarantined"] is True
        assert_results_healthy(results, specs)

    def test_survivors_behind_the_offender_are_resubmitted(
        self, monkeypatch, tmp_path
    ):
        """Specs queued behind a dying worker are re-run on the fresh
        pool and still land in their original slots."""
        sentinel = tmp_path / "failed-once"
        monkeypatch.setenv("REPRO_EXEC_FAIL_SEED", str(DOOMED_SEED))
        monkeypatch.setenv("REPRO_EXEC_FAIL_ONCE", str(sentinel))
        engine = SweepEngine(workers=2)
        specs = [tiny_spec(seed) for seed in
                 (5, DOOMED_SEED, 7, 8, 9)]
        results = engine.run_specs(specs)
        assert engine.last_stats.retried == 1
        assert engine.last_stats.simulated == 5
        assert_results_healthy(results, specs)

    def test_pool_broken_at_submit_is_retried(self, monkeypatch):
        """A pool that breaks before the last submit blames the first
        spec not yet collected, exactly as a broken ``result()`` does."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        submit = ProcessPoolExecutor.submit
        calls = []

        def breaks_on_second_call(pool, *args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died before the submit")
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit",
                            breaks_on_second_call)
        ledger = ExperimentLedger()
        engine = SweepEngine(workers=2, ledger=ledger, retries=1)
        specs = [tiny_spec(seed) for seed in (5, 7, 8)]
        results = engine.run_specs(specs)
        assert engine.last_stats.retried == 1
        assert engine.last_stats.quarantined == 0
        assert engine.last_stats.simulated == 3
        assert provenance(ledger, specs[0])["retries"] == 0
        assert provenance(ledger, specs[1])["retries"] == 1
        assert len(calls) == 4  # 1 + the failed one, then 2 on the new pool
        assert_results_healthy(results, specs)


class TestConfigValidation:
    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(workers=1, run_timeout_s=0.0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(workers=1, retries=-1)

    def test_hook_is_inert_without_env(self):
        from repro.exec.engine import _maybe_fail_for_test

        _maybe_fail_for_test(tiny_spec(DOOMED_SEED))  # must not raise
