"""Sharded cluster execution (repro.cluster.sharded).

The acceptance bar: ``n_shards=1`` is bit-identical to the serial
:class:`~repro.cluster.simulator.ClusterSimulator` on every fault-free
reference configuration, and the forked-worker driver is bit-identical
to the in-process driver for every shard count.
"""

import pytest

from repro.cluster import sharded
from repro.cluster.sharded import ShardedSimulator
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.core.policy import DualThresholdPolicy
from repro.errors import ConfigurationError
from repro.exec import (
    PolicySpec,
    RunSpec,
    SweepEngine,
    fork_available,
    result_to_dict,
)
from repro.faults.plan import FaultPlan
from repro.powerfail import ProtectionSpec
from repro.units import hours
from repro.workloads.spec import Priority

from .test_obs import (
    REFERENCE_CONFIGS,
    assert_results_bit_identical,
    make_requests,
)

#: The reference configurations a sharded run accepts (no fault
#: injection, no protection hierarchy).
FAULT_FREE = sorted(
    name
    for name, (overrides, _) in REFERENCE_CONFIGS.items()
    if (
        overrides.get("fault_plan") is None
        or overrides["fault_plan"].is_trivial
    )
    and overrides.get("protection") is None
)


def reference_run(name, duration_s=240.0):
    overrides, policy_cls = REFERENCE_CONFIGS[name]
    config = ClusterConfig(**overrides)
    requests = make_requests(4.0, duration_s, seed=config.seed)
    return config, policy_cls, requests


class TestValidation:
    def test_rejects_fault_plans(self):
        config = ClusterConfig(
            n_base_servers=8, fault_plan=FaultPlan.adversarial()
        )
        with pytest.raises(ConfigurationError):
            ShardedSimulator(config, DualThresholdPolicy())

    def test_trivial_fault_plan_is_fine(self):
        config = ClusterConfig(n_base_servers=8, fault_plan=FaultPlan.none())
        ShardedSimulator(config, DualThresholdPolicy())

    def test_rejects_protection(self):
        config = ClusterConfig(
            n_base_servers=8, protection=ProtectionSpec(servers_per_rack=4)
        )
        with pytest.raises(ConfigurationError):
            ShardedSimulator(config, DualThresholdPolicy())

    def test_rejects_bad_shard_counts(self):
        config = ClusterConfig(n_base_servers=8)
        with pytest.raises(ConfigurationError):
            ShardedSimulator(config, DualThresholdPolicy(), n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedSimulator(config, DualThresholdPolicy(), n_shards=9)

    def test_reference_set_is_nonempty(self):
        # The parity matrix below must actually cover brake and cap
        # activity; an empty set would pass vacuously.
        assert len(FAULT_FREE) >= 4


class TestSingleShardParity:
    """One shard owns everything: the decomposition must be exact."""

    @pytest.mark.parametrize("name", FAULT_FREE)
    def test_bit_identical_to_serial(self, name):
        config, policy_cls, requests = reference_run(name)
        serial = ClusterSimulator(config, policy_cls()).run(requests, 240.0)
        sharded = ShardedSimulator(config, policy_cls(), n_shards=1).run(
            requests, 240.0
        )
        assert_results_bit_identical(serial, sharded)

    def test_covers_brake_and_cap_machinery(self):
        # polca-oversubscribed engages the brake (and issues caps), so
        # the parity above exercises the command broadcast, the version
        # cancel path, and the landing order — not just idle ticks.
        config, policy_cls, requests = reference_run("polca-oversubscribed")
        serial = ClusterSimulator(config, policy_cls()).run(requests, 240.0)
        assert serial.power_brake_events > 0
        assert serial.capping_actions > 0

    def test_parallel_flag_falls_back_for_one_shard(self):
        config, policy_cls, requests = reference_run("polca-default")
        serial = ClusterSimulator(config, policy_cls()).run(requests, 240.0)
        sharded = ShardedSimulator(
            config, policy_cls(), n_shards=1, parallel=True
        ).run(requests, 240.0)
        assert_results_bit_identical(serial, sharded)


class TestMultiShard:
    """n > 1 partitions the row: deterministic, conserved, and the
    forked driver bit-identical to the in-process one."""

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_deterministic_and_conserved(self, n_shards):
        config, policy_cls, requests = reference_run("polca-oversubscribed")
        first = ShardedSimulator(
            config, policy_cls(), n_shards=n_shards
        ).run(requests, 240.0)
        second = ShardedSimulator(
            config, policy_cls(), n_shards=n_shards
        ).run(requests, 240.0)
        assert result_to_dict(first) == result_to_dict(second)
        offered = {p: 0 for p in Priority}
        for request in requests:
            if request.arrival_time < 240.0:
                offered[request.priority] += 1
        for priority, tier in first.per_priority.items():
            assert tier.served + tier.dropped == offered[priority]

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_non_owned_servers_stay_dark(self, n_shards, monkeypatch):
        """Every shard core keeps 0 W on the servers it does not own.

        They are failed before start, so each power refresh — the
        group-wide ones at cap and brake landings included — must hold
        them at zero, or the shard's energy integral counts their idle
        power on top of the shard that owns them.
        """
        config, policy_cls, requests = reference_run("polca-oversubscribed")
        cores = []
        build = sharded._build_shard_core

        def build_and_keep(config, requests, duration_s, shard, n_shards,
                           recorder=None):
            core = build(config, requests, duration_s, shard, n_shards,
                         recorder)
            owned = sharded._owned_indices(config.n_servers, shard, n_shards)
            cores.append((core, set(owned)))
            return core

        def assert_dark():
            assert len(cores) == n_shards
            for core, owned in cores:
                for index, power in enumerate(core.server_power):
                    if index not in owned:
                        assert power == 0.0, (index, power)

        tick_reply = sharded._LocalShard.tick_reply

        def checked_tick_reply(backend, reply):
            assert_dark()
            return tick_reply(backend, reply)

        monkeypatch.setattr(sharded, "_build_shard_core", build_and_keep)
        monkeypatch.setattr(
            sharded._LocalShard, "tick_reply", checked_tick_reply
        )
        result = ShardedSimulator(
            config, policy_cls(), n_shards=n_shards
        ).run(requests, 240.0)
        assert_dark()
        # The config both brakes and caps, so landings were checked.
        assert result.power_brake_events > 0
        assert result.capping_actions > 0

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_parallel_matches_in_process(self, n_shards):
        config, policy_cls, requests = reference_run("polca-default")
        local = ShardedSimulator(
            config, policy_cls(), n_shards=n_shards
        ).run(requests, 240.0)
        parallel = ShardedSimulator(
            config, policy_cls(), n_shards=n_shards, parallel=True
        ).run(requests, 240.0)
        assert result_to_dict(local) == result_to_dict(parallel)

    def test_engine_run_sharded_single_shard_shares_cache(self):
        spec = RunSpec(
            ClusterConfig(n_base_servers=10, seed=1, added_fraction=0.3),
            PolicySpec("POLCA"),
            hours(1),
        )
        engine = SweepEngine(workers=1)
        serial = engine.run(spec)
        sharded_engine = SweepEngine(workers=1)
        sharded = sharded_engine.run_sharded(
            spec, n_shards=1, parallel=False
        )
        assert_results_bit_identical(serial, sharded)
        # n_shards=1 is bit-identical, so it fills the plain digest:
        # a later engine.run() is a cache hit, not a re-simulation.
        assert sharded_engine.run(spec) is sharded

    def test_engine_run_sharded_caches_per_shard_count(self):
        spec = RunSpec(
            ClusterConfig(n_base_servers=10, seed=1, added_fraction=0.3),
            PolicySpec("POLCA"),
            hours(1),
        )
        engine = SweepEngine(workers=1)
        first = engine.run_sharded(spec, n_shards=2, parallel=False)
        assert engine.run_sharded(spec, n_shards=2, parallel=False) is first
        assert engine.cache.get(f"{spec.digest()}-shards2") is first
        assert engine.cache.get(spec.digest()) is None

    def test_merged_series_and_counters_present(self):
        config, policy_cls, requests = reference_run("polca-oversubscribed")
        result = ShardedSimulator(config, policy_cls(), n_shards=2).run(
            requests, 240.0
        )
        serial = ClusterSimulator(config, policy_cls()).run(requests, 240.0)
        assert len(result.power_series.values) == \
            len(serial.power_series.values)
        assert result.total_energy_j > 0
        assert result.robustness.time_at_risk_s >= 0.0
        assert result.duration_s == 240.0
