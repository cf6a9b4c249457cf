"""Priority-aware load balancing across the row's servers.

The cloud allocator deployed with POLCA "is aware of workload priorities,
and it can make power-oversubscription aware allocation to ensure a good
mix of high and low-priority jobs in every row" (Section 6.3). We model
that by partitioning servers into low- and high-priority pools sized by
the request mix, and routing each request to an idle server of its pool —
falling back to the emptiest buffer ("typical load balanced setup,
reducing the chance of simultaneous capping", Section 6.6) and dropping
the request when every buffer in the pool is full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.server_sim import ServerSim
from repro.errors import ConfigurationError
from repro.workloads.spec import Priority


@dataclass
class LoadBalancer:
    """Routes requests to servers within their priority pool.

    Attributes:
        servers: All servers in the row.
        seed: RNG seed for random choice among equally good servers.
    """

    servers: Sequence[ServerSim]
    seed: int = 0
    _pools: Dict[Priority, List[ServerSim]] = field(init=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigurationError("load balancer needs at least one server")
        self._pools = {priority: [] for priority in Priority}
        for server in self.servers:
            self._pools[server.priority].append(server)
        for priority, pool in self._pools.items():
            if not pool:
                raise ConfigurationError(
                    f"no servers allocated to the {priority.value} pool"
                )
        self._rng = np.random.default_rng(self.seed)

    def pool(self, priority: Priority) -> List[ServerSim]:
        """The servers allocated to one priority tier."""
        return self._pools[priority]

    def route(self, priority: Priority) -> Optional[ServerSim]:
        """Pick a server for a request of the given priority.

        Least-loaded routing: a random server among those with the fewest
        occupied slots; when every slot in the pool is busy, a random
        server with a free one-request buffer; else ``None`` (the request
        is dropped — this is what dents low-priority throughput under
        capping in Figure 14).
        """
        pool = self._pools[priority]
        # Single pass, attribute access inlined: this runs once per
        # arrival and dominated the routing cost as three comprehensions.
        # `best` collects pool-ordered least-loaded candidates, exactly as
        # the equivalent filter-then-min construction would, so the RNG
        # draw sequence is unchanged. A lone candidate is returned
        # without a draw: `integers(1)` consumes no generator state, so
        # skipping it leaves every later draw where it was.
        least = -1
        best: List[ServerSim] = []
        for server in pool:
            if server.failed:
                continue
            n_active = len(server.slots)
            if n_active >= server.concurrency:
                continue
            if least < 0 or n_active < least:
                least = n_active
                best = [server]
            elif n_active == least:
                best.append(server)
        if best:
            if len(best) == 1:
                return best[0]
            return best[int(self._rng.integers(len(best)))]
        # Buffer fallback. Skip failed servers explicitly: a request
        # buffered on a dead server would vanish from the served/dropped
        # accounting entirely. (``can_buffer`` also rejects failed
        # servers, but the invariant belongs to routing — keeping the
        # filter here means a future ``can_buffer`` change cannot
        # silently lose requests, and the candidate list is unchanged,
        # so the RNG draw sequence is identical.)
        free_buffer = [s for s in pool if not s.failed and s.can_buffer]
        if free_buffer:
            return free_buffer[int(self._rng.integers(len(free_buffer)))]
        return None


def split_servers(
    server_ids: Sequence[str],
    low_priority_fraction: float = 0.5,
) -> Dict[str, Priority]:
    """Assign servers to priority pools in an interleaved pattern.

    Interleaving (rather than contiguous blocks) models the allocator
    spreading priorities across racks. ``low_priority_fraction`` is the
    Figure 15b sweep knob.

    Raises:
        ConfigurationError: If the fraction would leave a pool empty.
    """
    n = len(server_ids)
    n_low = int(round(n * low_priority_fraction))
    if n_low <= 0 or n_low >= n:
        raise ConfigurationError(
            f"low_priority_fraction {low_priority_fraction} leaves an empty "
            f"pool for {n} servers"
        )
    assignment: Dict[str, Priority] = {}
    # Distribute LP slots as evenly as possible across the ordered list.
    stride = n / n_low
    low_indices = {int(i * stride) for i in range(n_low)}
    cursor = 0
    for index, server_id in enumerate(server_ids):
        if index in low_indices and cursor < n_low:
            assignment[server_id] = Priority.LOW
            cursor += 1
        else:
            assignment[server_id] = Priority.HIGH
    # Exact count correction (set arithmetic may collide).
    actual_low = sum(1 for p in assignment.values() if p is Priority.LOW)
    if actual_low < n_low:
        for server_id in server_ids:
            if actual_low == n_low:
                break
            if assignment[server_id] is Priority.HIGH:
                assignment[server_id] = Priority.LOW
                actual_low += 1
    return assignment
