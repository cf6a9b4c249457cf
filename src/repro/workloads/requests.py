"""Sampling concrete requests from the workload mix.

Combines the Table 6 mix (which workload, which priority) with per-request
prompt/output sizes drawn uniformly from the workload's ranges, producing
the request stream the POLCA simulator serves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.spec import Priority, TABLE6_MIX, WorkloadSpec


@dataclass(frozen=True, slots=True)
class SampledRequest:
    """One concrete inference request in the cluster trace.

    Slotted: a long trace holds millions of these, and a per-instance
    ``__dict__`` would cost about a fifth of the trace's memory.

    Attributes:
        arrival_time: Arrival time in seconds from trace start.
        workload: The Table 6 workload it belongs to.
        priority: Its priority tier.
        input_tokens: Sampled prompt length.
        output_tokens: Sampled output length.
    """

    arrival_time: float
    workload: WorkloadSpec
    priority: Priority
    input_tokens: int
    output_tokens: int


@dataclass
class RequestSampler:
    """Draws workloads, priorities, and sizes per Table 6.

    Per request the generator draws, in this order: ``random()`` for the
    workload, ``random()`` for the priority, then ``integers`` for the
    prompt and ``integers`` for the output size (a one-value range
    consumes no draw). The workload draw is what
    ``Generator.choice(len(mix), p=shares)`` does — one ``random()``
    looked up in the cdf normalized as ``choice`` normalizes it — without
    re-validating ``p`` on every call; any reorder changes every trace.

    Attributes:
        mix: The workload mix; shares must sum to 1.
        seed: RNG seed.
    """

    mix: Sequence[WorkloadSpec] = TABLE6_MIX
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _cdf: List[float] = field(init=False, repr=False)
    _rows: List[Tuple[WorkloadSpec, float, int, int, int, int]] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        total_share = sum(w.share for w in self.mix)
        if abs(total_share - 1.0) > 1e-9:
            raise ConfigurationError(
                f"workload shares sum to {total_share}, expected 1.0"
            )
        self._rng = np.random.default_rng(self.seed)
        cdf = np.array([w.share for w in self.mix], dtype=float).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()
        self._rows = [
            (w, w.high_priority_probability,
             w.prompt_range[0], w.prompt_range[1] + 1,
             w.output_range[0], w.output_range[1] + 1)
            for w in self.mix
        ]

    def sample(self, arrival_time: float) -> SampledRequest:
        """Sample one request arriving at ``arrival_time``."""
        return self.sample_many((arrival_time,))[0]

    def sample_many(self, arrival_times: Sequence[float]) -> List[SampledRequest]:
        """Sample one request per arrival time."""
        random = self._rng.random
        integers = self._rng.integers
        cdf = self._cdf
        rows = self._rows
        requests = []
        for t in arrival_times:
            workload, p_high, lo_p, hi_p, lo_o, hi_o = rows[
                bisect_right(cdf, random())
            ]
            priority = Priority.HIGH if random() < p_high else Priority.LOW
            requests.append(SampledRequest(
                t, workload, priority,
                int(integers(lo_p, hi_p)), int(integers(lo_o, hi_o)),
            ))
        return requests

    def expected_priority_split(self) -> float:
        """Expected fraction of high-priority requests (0.5 for Table 6)."""
        return sum(w.share * w.high_priority_probability for w in self.mix)
