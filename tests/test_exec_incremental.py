"""Checkpointed incremental re-simulation (repro.exec.incremental).

The acceptance bar is bit-identical parity: a sweep point that restores
a family checkpoint and replays only its suffix must produce exactly
the result of a straight-through run — on every reference
configuration, under adversarial fault plans, and through powerfail
breaker trips.
"""

import copy
import pickle
import pickletools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import server_sim
from repro.cluster.core import SimulationCore
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.control.emergency import EmergencyConfig
from repro.core.baselines import NoCapPolicy
from repro.core.policy import DualThresholdPolicy, PolcaThresholds
from repro.core.sweeps import EvaluationHarness, threshold_search
from repro.errors import ConfigurationError
from repro.exec import (
    IncrementalExecutor,
    PolicySpec,
    RunCache,
    RunSpec,
    SweepEngine,
    TapePolicy,
    execute_spec,
    family_digest,
    first_divergence,
    result_to_dict,
)
from repro.faults.plan import FaultPlan, TelemetryFaultSpec
from repro.powerfail import ProtectionSpec, TripCurve
from repro.units import hours

from .test_obs import (
    REFERENCE_CONFIGS,
    assert_results_bit_identical,
    make_requests,
)

POLCA_LOW = PolicySpec("POLCA", PolcaThresholds(t1=0.75, t2=0.85))
POLCA_HIGH = PolicySpec("POLCA", PolcaThresholds(t1=0.85, t2=0.95))

#: The policy each reference configuration ran under (as a spec), and a
#: different policy to resume against its tape.
REFERENCE_POLICIES = {
    "polca-default": (PolicySpec("POLCA"), POLCA_LOW),
    "polca-oversubscribed": (PolicySpec("POLCA"), POLCA_HIGH),
    "polca-adversarial": (PolicySpec("POLCA"), POLCA_LOW),
    "nocap-power-scaled": (PolicySpec("No-cap"), PolicySpec("POLCA")),
    "single-thresh-lp-heavy": (
        PolicySpec("1-Thresh-Low-Pri"), PolicySpec("POLCA"),
    ),
    "nocap-stale-telemetry": (
        PolicySpec("No-cap"), PolicySpec("1-Thresh-All"),
    ),
}


def reference_spec(name, policy, duration_s=hours(2)):
    # Two hours, not the 240 s of the recorder tests: the engine path
    # synthesizes its request trace from the production power trace,
    # and the MAPE fit needs a realistic window (an hour misses the 3%
    # tolerance for some of the 8-server seeds).
    overrides, _ = REFERENCE_CONFIGS[name]
    return RunSpec(ClusterConfig(**overrides), policy, duration_s)


def run_tape(config, policy, duration_s=240.0, rate_per_s=4.0):
    """Run ``policy`` under a tape recorder; return (result, tape)."""
    wrapped = TapePolicy(policy)
    requests = make_requests(rate_per_s, duration_s, seed=config.seed)
    result = ClusterSimulator(config, wrapped).run(requests, duration_s)
    return result, list(wrapped.tape)


class TestTapePolicy:
    def test_wrapping_is_transparent(self):
        config = ClusterConfig(n_base_servers=8, seed=1, added_fraction=0.3)
        requests = make_requests(4.0, 240.0, seed=1)
        plain = ClusterSimulator(config, DualThresholdPolicy()).run(
            requests, 240.0
        )
        taped, tape = run_tape(config, DualThresholdPolicy())
        assert_results_bit_identical(plain, taped)
        assert len(tape) > 0
        assert all(r.now <= 240.0 for r in tape)

    def test_forwards_attributes(self):
        wrapped = TapePolicy(DualThresholdPolicy())
        assert wrapped.name == DualThresholdPolicy().name
        assert wrapped.brake_threshold == \
            DualThresholdPolicy().brake_threshold

    def test_reset_clears_tape(self):
        wrapped = TapePolicy(NoCapPolicy())
        wrapped.desired_caps(0.5, 2.0)
        assert wrapped.tape
        wrapped.reset()
        assert wrapped.tape == []


class TestDivergence:
    def test_identical_policy_matches_full_tape(self):
        config = ClusterConfig(n_base_servers=8, seed=1, added_fraction=0.3)
        _, tape = run_tape(config, DualThresholdPolicy())
        assert first_divergence(tape, DualThresholdPolicy()) is None

    def test_different_thresholds_diverge(self):
        config = ClusterConfig(n_base_servers=8, seed=1, added_fraction=0.3)
        _, tape = run_tape(config, DualThresholdPolicy())
        probe = DualThresholdPolicy(PolcaThresholds(t1=0.75, t2=0.85))
        index = first_divergence(tape, probe)
        assert index is not None
        # Everything before the divergent step matched — a fresh probe
        # re-fed the prefix answers identically.
        fresh = DualThresholdPolicy(PolcaThresholds(t1=0.75, t2=0.85))
        assert first_divergence(tape[:index], fresh) is None


class TestFamilyDigest:
    def test_policy_excluded(self):
        a = reference_spec("polca-default", PolicySpec("POLCA"))
        b = reference_spec("polca-default", PolicySpec("No-cap"))
        assert a.digest() != b.digest()
        assert family_digest(a) == family_digest(b)

    def test_config_and_duration_included(self):
        a = reference_spec("polca-default", PolicySpec("POLCA"))
        b = reference_spec("polca-oversubscribed", PolicySpec("POLCA"))
        c = reference_spec("polca-default", PolicySpec("POLCA"), 480.0)
        assert family_digest(a) != family_digest(b)
        assert family_digest(a) != family_digest(c)

    def test_schema_is_part_of_the_family(self, monkeypatch):
        from repro.exec import incremental

        spec = reference_spec("polca-default", PolicySpec("POLCA"))
        current = family_digest(spec)
        monkeypatch.setattr(incremental, "INCREMENTAL_SCHEMA", 5)
        assert family_digest(spec) != current

    def test_epoch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            IncrementalExecutor(RunCache(), checkpoint_epoch_s=0.0)


class TestIncrementalParity:
    """Base + resumed runs bit-identical on all 6 reference configs."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_reference_config(self, name):
        base_policy, variant_policy = REFERENCE_POLICIES[name]
        base_spec = reference_spec(name, base_policy)
        variant_spec = reference_spec(name, variant_policy)
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)

        base = executor.execute(base_spec)
        executor.cache.put(base_spec.digest(), base)
        assert executor.stats.base_runs == 1
        assert_results_bit_identical(base, execute_spec(base_spec))

        variant = executor.execute(variant_spec)
        assert_results_bit_identical(variant, execute_spec(variant_spec))
        assert (
            executor.stats.resumed_runs
            + executor.stats.reused_results
            + executor.stats.cold_runs
        ) == 1

    def test_resume_with_readings_in_flight(self):
        # Readings arrive 3 s after their 2 s ticks, so every
        # checkpoint holds a delayed ("obs", value) event in its queue.
        overrides, _ = REFERENCE_CONFIGS["polca-oversubscribed"]
        config = ClusterConfig(**overrides, fault_plan=FaultPlan(
            telemetry=TelemetryFaultSpec(delay_s=3.0)
        ))
        base_spec = RunSpec(config, PolicySpec("POLCA"), hours(2))
        variant_spec = RunSpec(config, POLCA_HIGH, hours(2))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(base_spec)
        variant = executor.execute(variant_spec)
        assert executor.stats.resumed_runs == 1
        assert_results_bit_identical(variant, execute_spec(variant_spec))

    def test_full_tape_match_reuses_base_result(self):
        spec = reference_spec("polca-default", PolicySpec("POLCA"))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        base = executor.execute(spec)
        executor.cache.put(spec.digest(), base)
        again = executor.execute(
            reference_spec("polca-default", PolicySpec("POLCA"))
        )
        assert again is base
        assert executor.stats.reused_results == 1

    def test_tape_of_an_older_schema_runs_the_family_cold(self):
        # A schema-6 tape names checkpoints that pickled the actuator's
        # command history; its family must not resume from them.
        base_spec = reference_spec("polca-default", PolicySpec("No-cap"))
        variant_spec = reference_spec("polca-default", PolicySpec("POLCA"))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(base_spec)
        tape = f"{family_digest(variant_spec)}-tape"
        meta = pickle.loads(executor.cache.get_blob(tape))
        assert meta["schema"] == 7
        executor.cache.put_blob(tape, pickle.dumps({**meta, "schema": 6}))
        variant = executor.execute(variant_spec)
        assert executor.stats.resumed_runs == 0
        assert executor.stats.base_runs == 2
        assert pickle.loads(executor.cache.get_blob(tape))["schema"] == 7
        assert_results_bit_identical(variant, execute_spec(variant_spec))

    def test_evicted_checkpoints_degrade_to_cold_run(self):
        base_spec = reference_spec("polca-default", PolicySpec("No-cap"))
        variant_spec = reference_spec("polca-default", PolicySpec("POLCA"))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(base_spec)
        for key in [k for k in executor.cache._blobs if "-ckpt-" in k]:
            del executor.cache._blobs[key]
        variant = executor.execute(variant_spec)
        assert executor.stats.cold_runs == 1
        assert_results_bit_identical(variant, execute_spec(variant_spec))


def tripping_config(seed=0, adversarial=False):
    """30% oversubscribed behind an undersized row breaker: sustained
    load trips it (and recovery re-energizes servers) inside 240 s."""
    return ClusterConfig(
        n_base_servers=4, added_fraction=0.5, seed=seed,
        fault_plan=FaultPlan.adversarial() if adversarial else None,
        protection=ProtectionSpec(
            servers_per_rack=2,
            row_headroom=0.55,
            rack_headroom=1.02,
            curve=TripCurve(tau_trip_s=5.0, tau_cool_s=60.0),
            cooldown_s=20.0,
            restore_stagger_s=2.0,
            emergency=EmergencyConfig(enabled=False),
        ),
    )


class TestCheckpointRestoreProperty:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        epoch=st.sampled_from([30.0, 60.0, 70.0, 110.0]),
        adversarial=st.booleans(),
    )
    def test_restore_at_every_epoch_matches_straight_through(
        self, seed, epoch, adversarial
    ):
        """Restore at epoch k + replay == straight-through, including
        under adversarial faults and powerfail breaker trips."""
        duration = 240.0
        config = tripping_config(seed=seed, adversarial=adversarial)
        requests = make_requests(4.0, duration, seed=seed)

        straight = ClusterSimulator(config, DualThresholdPolicy()).run(
            requests, duration
        )
        expected = result_to_dict(straight)

        blobs = []
        simulator = ClusterSimulator(config, DualThresholdPolicy())
        core = simulator.start(requests, duration)
        core.run_all(
            epoch,
            lambda when, c: blobs.append(
                (when, c.checkpoint(), copy.deepcopy(c.policy))
            ),
        )
        assert_results_bit_identical(core.finalize(), straight)
        assert blobs

        for when, blob, policy in blobs:
            restored = SimulationCore.restore(blob, requests, policy)
            restored.run_all()
            resumed = restored.finalize()
            assert result_to_dict(resumed) == expected, (
                f"resume at t={when} diverged"
            )


class TestCheckpointCodec:
    def base_run(self):
        spec = reference_spec("polca-oversubscribed", PolicySpec("POLCA"))
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=600.0)
        executor.execute(spec)
        return spec, executor

    def test_blob_names_no_request_policy_or_tape(self):
        spec, executor = self.base_run()
        blob = executor.cache.get_blob(f"{family_digest(spec)}-ckpt-1")
        assert blob is not None
        names = {
            arg for _, arg, _ in pickletools.genops(blob)
            if isinstance(arg, str)
        }
        for forbidden in ("SampledRequest", "TapePolicy", "StepRecord"):
            assert not any(forbidden in name for name in names), forbidden

    def test_restored_core_shares_canonical_objects(self):
        config = tripping_config(seed=1)
        requests = make_requests(4.0, 240.0, seed=1)
        blobs = []
        core = ClusterSimulator(config, DualThresholdPolicy()).start(
            requests, 240.0
        )
        core.run_all(60.0, lambda when, c: blobs.append(c.checkpoint()))
        policy = DualThresholdPolicy()
        restored = SimulationCore.restore(blobs[1], requests, policy)
        assert set(vars(restored)) == set(vars(core))
        assert restored.policy is policy
        assert restored.requests is requests
        for original, server in zip(core.servers, restored.servers):
            assert server.model is original.model
            assert server._spec is original._spec
            assert server._profile == original._profile
            for active in server.slots.values():
                assert any(active.request is r for r in requests)
        assert restored.balancer.servers is restored.servers

    def test_shed_deferrals_survive_restore(self):
        """Deferred arrivals (on the heap and in ``defer_counts``) are
        trace-index references in the blob and resolve back to the
        trace's own request objects."""
        tripping = tripping_config(seed=1)
        config = replace(tripping, protection=replace(
            tripping.protection,
            emergency=EmergencyConfig(shed_priorities=("low", "high")),
        ))
        requests = make_requests(6.0, 240.0, seed=1)
        expected = result_to_dict(
            ClusterSimulator(config, DualThresholdPolicy()).run(
                requests, 240.0
            )
        )
        blobs = []
        core = ClusterSimulator(config, DualThresholdPolicy()).start(
            requests, 240.0
        )
        core.run_all(60.0, lambda when, c: blobs.append(
            (dict(c.defer_counts), c.checkpoint(), copy.deepcopy(c.policy))
        ))
        assert any(defers for defers, _, _ in blobs)
        for defers, blob, policy in blobs:
            restored = SimulationCore.restore(blob, requests, policy)
            assert restored.defer_counts == defers
            restored.run_all()
            assert result_to_dict(restored.finalize()) == expected

    def test_resume_keeps_hitting_the_timeline_memo(self, monkeypatch):
        base_spec = reference_spec("polca-oversubscribed", PolicySpec("POLCA"))
        variant_spec = reference_spec("polca-oversubscribed", POLCA_HIGH)
        # Warm the memo with every request shape either run starts.
        execute_spec(base_spec)
        execute_spec(variant_spec)
        # A memo miss expands through the compiled timeline of the
        # server's model and GPU: count those expansions.
        expansions = []
        compiled = server_sim.compiled_timeline

        def counted(*args):
            expansions.append(args)
            return compiled(*args)

        monkeypatch.setattr(server_sim, "compiled_timeline", counted)
        entries = len(server_sim._timeline_cache)
        refs = len(server_sim._timeline_cache_refs)
        executor = IncrementalExecutor(RunCache(), checkpoint_epoch_s=300.0)
        executor.execute(base_spec)
        executor.execute(variant_spec)
        assert executor.stats.resumed_runs == 1
        assert expansions == []
        assert len(server_sim._timeline_cache) == entries
        assert len(server_sim._timeline_cache_refs) == refs


class TestEngineIntegration:
    def family(self, harness):
        return [
            harness.spec(PolicySpec("No-cap"), added_fraction=0.3),
            harness.spec(PolicySpec("POLCA"), added_fraction=0.3),
            harness.spec(POLCA_LOW, added_fraction=0.3),
        ]

    def test_incremental_engine_matches_plain(self):
        plain = EvaluationHarness(
            n_base_servers=10, duration_s=hours(1), seed=1
        )
        incremental = EvaluationHarness(
            n_base_servers=10, duration_s=hours(1), seed=1,
            incremental=True, checkpoint_epoch_s=60.0,
        )
        expected = SweepEngine(workers=1, cache=plain.cache).run_specs(
            self.family(plain)
        )
        engine = incremental.engine()
        got = engine.run_specs(self.family(incremental))
        for a, b in zip(got, expected):
            assert result_to_dict(a) == result_to_dict(b)
        stats = engine.last_stats
        assert stats.incremental_resumed + stats.incremental_reused >= 1
        # Warm re-run: everything answered from the result cache.
        again = engine.run_specs(self.family(incremental))
        assert engine.last_stats.simulated == 0
        assert [id(r) for r in again] == [id(r) for r in got]

    def test_threshold_search_incremental_parity(self):
        combos = (
            ("80-89", PolcaThresholds(t1=0.80, t2=0.89)),
            ("85-95", PolcaThresholds(t1=0.85, t2=0.95)),
        )
        plain = EvaluationHarness(
            n_base_servers=10, duration_s=hours(1), seed=1
        )
        incremental = EvaluationHarness(
            n_base_servers=10, duration_s=hours(1), seed=1,
            incremental=True, checkpoint_epoch_s=300.0,
        )
        expected = threshold_search(plain, combos, [0.3])
        got = threshold_search(incremental, combos, [0.3])
        assert got == expected

    def test_full_tape_match_in_one_batch_reuses_base_result(self):
        # At an hour of light load no threshold is reached, so POLCA
        # answers every control step exactly as No-cap did.
        harness = EvaluationHarness(
            n_base_servers=10, duration_s=hours(1), seed=1,
            incremental=True, checkpoint_epoch_s=600.0,
        )
        engine = harness.engine()
        base, match = engine.run_specs([
            harness.spec(PolicySpec("No-cap")),
            harness.spec(PolicySpec("POLCA")),
        ])
        assert engine.last_stats.incremental_reused == 1
        assert engine.last_stats.incremental_resumed == 0
        assert match is base
