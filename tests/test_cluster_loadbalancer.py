"""Priority-aware load balancing and server pool splitting."""

import pytest

from repro.cluster.loadbalancer import LoadBalancer, split_servers
from repro.cluster.server_sim import ServerSim
from repro.errors import ConfigurationError
from repro.workloads.requests import SampledRequest
from repro.workloads.spec import CHAT, Priority


def make_servers(n_low=2, n_high=2):
    servers = []
    for index in range(n_low):
        servers.append(ServerSim(f"lp{index}", Priority.LOW))
    for index in range(n_high):
        servers.append(ServerSim(f"hp{index}", Priority.HIGH))
    return servers


def fill(server):
    request = SampledRequest(0.0, CHAT, server.priority, 1024, 256)
    while server.has_free_slot:
        server.start_request(0.0, request)


class TestSplitServers:
    def test_even_split(self):
        ids = [f"s{i}" for i in range(40)]
        assignment = split_servers(ids, 0.5)
        low = sum(1 for p in assignment.values() if p is Priority.LOW)
        assert low == 20

    def test_uneven_split(self):
        ids = [f"s{i}" for i in range(40)]
        assignment = split_servers(ids, 0.25)
        low = sum(1 for p in assignment.values() if p is Priority.LOW)
        assert low == 10

    def test_interleaved_not_contiguous(self):
        ids = [f"s{i}" for i in range(8)]
        assignment = split_servers(ids, 0.5)
        first_half = [assignment[f"s{i}"] for i in range(4)]
        assert Priority.LOW in first_half and Priority.HIGH in first_half

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            split_servers(["a", "b"], 0.0)
        with pytest.raises(ConfigurationError):
            split_servers(["a", "b"], 1.0)


class TestRouting:
    def test_routes_within_priority_pool(self):
        balancer = LoadBalancer(make_servers(), seed=0)
        for _ in range(20):
            server = balancer.route(Priority.LOW)
            assert server.priority is Priority.LOW

    def test_least_loaded_preferred(self):
        servers = make_servers(n_low=2, n_high=1)
        request = SampledRequest(0.0, CHAT, Priority.LOW, 1024, 256)
        servers[0].start_request(0.0, request)
        balancer = LoadBalancer(servers, seed=0)
        for _ in range(10):
            assert balancer.route(Priority.LOW).server_id == "lp1"

    def test_falls_back_to_buffer_when_slots_full(self):
        servers = make_servers(n_low=1, n_high=1)
        fill(servers[0])
        balancer = LoadBalancer(servers, seed=0)
        chosen = balancer.route(Priority.LOW)
        assert chosen is servers[0]
        assert chosen.can_buffer

    def test_drops_when_pool_saturated(self):
        servers = make_servers(n_low=1, n_high=1)
        fill(servers[0])
        servers[0].buffered = SampledRequest(0.0, CHAT, Priority.LOW, 512, 128)
        balancer = LoadBalancer(servers, seed=0)
        assert balancer.route(Priority.LOW) is None
        # The other pool is unaffected.
        assert balancer.route(Priority.HIGH) is not None

    def test_requires_both_pools(self):
        with pytest.raises(ConfigurationError):
            LoadBalancer([ServerSim("only", Priority.LOW)], seed=0)

    def test_requires_servers(self):
        with pytest.raises(ConfigurationError):
            LoadBalancer([], seed=0)

    def test_single_candidate_consumes_no_draw(self):
        servers = make_servers(n_low=3, n_high=1)
        request = SampledRequest(0.0, CHAT, Priority.LOW, 1024, 256)
        servers[0].start_request(0.0, request)
        servers[1].start_request(0.0, request)
        balancer = LoadBalancer(servers, seed=3)
        state = balancer._rng.bit_generator.state
        assert balancer.route(Priority.LOW) is servers[2]
        assert balancer._rng.bit_generator.state == state
        # A tie still draws, so the sequence is the one it always was.
        assert balancer.route(Priority.HIGH) is servers[3]
        assert balancer._rng.bit_generator.state == state
        servers[2].start_request(0.0, request)
        balancer.route(Priority.LOW)
        assert balancer._rng.bit_generator.state != state

    def test_pool_accessor(self):
        balancer = LoadBalancer(make_servers(3, 2), seed=0)
        assert len(balancer.pool(Priority.LOW)) == 3
        assert len(balancer.pool(Priority.HIGH)) == 2


class TestRoutingUnderChurn:
    """A failed server must be invisible to routing — in the slot pass
    AND the buffer fallback. A request handed to a dead server would
    vanish from the served/dropped ledgers."""

    def test_failed_server_never_routed_to(self):
        servers = make_servers(n_low=3, n_high=1)
        servers[1].fail(0.0)
        balancer = LoadBalancer(servers, seed=0)
        for _ in range(50):
            chosen = balancer.route(Priority.LOW)
            assert chosen is not None
            assert not chosen.failed

    def test_buffer_fallback_skips_failed_servers(self):
        # Every live LP server is slot-saturated, so routing must take
        # the buffer fallback — and must only consider live buffers.
        servers = make_servers(n_low=3, n_high=1)
        fill(servers[0])
        fill(servers[2])
        servers[1].fail(0.0)
        balancer = LoadBalancer(servers, seed=0)
        for _ in range(50):
            chosen = balancer.route(Priority.LOW)
            assert chosen is not None
            assert not chosen.failed
            assert chosen.can_buffer

    def test_drops_when_only_failed_capacity_remains(self):
        # The live servers are fully saturated (slots + buffer); the
        # failed server's apparent capacity must not save the request.
        servers = make_servers(n_low=2, n_high=1)
        fill(servers[0])
        servers[0].buffered = SampledRequest(
            0.0, CHAT, Priority.LOW, 512, 128
        )
        servers[1].fail(0.0)
        balancer = LoadBalancer(servers, seed=0)
        assert balancer.route(Priority.LOW) is None
