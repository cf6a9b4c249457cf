"""Runtime fault injection compiled from a :class:`FaultPlan`.

The :class:`FaultInjector` materializes a plan into concrete, seeded
schedules for one simulation run: sorted telemetry dropout/freeze windows,
a server churn event list, and per-command actuation perturbations. The
cluster simulator consults it at every telemetry tick and command issue;
the injector tallies what it injected so the end-of-run
:class:`~repro.faults.report.RobustnessReport` can compare injected
against detected and recovered faults.

All randomness derives from the plan seed via independent child streams,
so the same ``(plan, duration, n_servers)`` triple always injects the
identical fault sequence regardless of what the simulated cluster does.
"""

from __future__ import annotations

import bisect
import enum
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, ServerChurnEvent, Window


class TelemetryFate(enum.Enum):
    """What happens to one telemetry sample."""

    OK = "ok"
    DROPPED = "dropped"
    FROZEN = "frozen"


def _merge_windows(windows: List[Window]) -> List[Window]:
    """Sort and coalesce overlapping windows."""
    merged: List[Window] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _random_windows(
    rng: np.random.Generator,
    rate_per_hour: float,
    mean_duration_s: float,
    duration_s: float,
) -> List[Window]:
    """Poisson-process windows over ``[0, duration_s)``."""
    if rate_per_hour <= 0:
        return []
    expected = rate_per_hour * duration_s / 3600.0
    count = int(rng.poisson(expected))
    windows: List[Window] = []
    for _ in range(count):
        start = float(rng.uniform(0.0, duration_s))
        length = float(rng.exponential(mean_duration_s))
        windows.append((start, min(start + length, duration_s)))
    return windows


class FaultInjector:
    """Materialized fault schedule for one simulation run.

    Attributes:
        plan: The source plan.
        duration_s: Simulated horizon the schedules cover.
        n_servers: Deployed server count (bounds churn targets).
    """

    def __init__(
        self, plan: FaultPlan, duration_s: float, n_servers: int
    ) -> None:
        if duration_s <= 0:
            raise ConfigurationError("injector duration must be positive")
        if n_servers <= 0:
            raise ConfigurationError("injector needs at least one server")
        self.plan = plan
        self.duration_s = duration_s
        self.n_servers = n_servers
        seeds = np.random.SeedSequence(plan.seed).spawn(4)
        windows_rng = np.random.default_rng(seeds[0])
        churn_rng = np.random.default_rng(seeds[1])
        self._spike_rng = np.random.default_rng(seeds[2])
        self._delay_rng = np.random.default_rng(seeds[3])

        telemetry = plan.telemetry
        self.dropout_windows: List[Window] = _merge_windows(
            list(telemetry.dropout_windows)
            + _random_windows(
                windows_rng,
                telemetry.dropouts_per_hour,
                telemetry.dropout_duration_s,
                duration_s,
            )
        )
        self.freeze_windows: List[Window] = _merge_windows(
            list(telemetry.freeze_windows)
            + _random_windows(
                windows_rng,
                telemetry.freezes_per_hour,
                telemetry.freeze_duration_s,
                duration_s,
            )
        )
        self._dropout_starts = [w[0] for w in self.dropout_windows]
        self._freeze_starts = [w[0] for w in self.freeze_windows]
        self.churn_events: List[ServerChurnEvent] = self._compile_churn(
            churn_rng
        )

        # Injection tallies (consumed by the RobustnessReport).
        self.dropped_ticks = 0
        self.frozen_ticks = 0
        self.spikes_injected = 0
        self.delayed_actuations = 0

    # ------------------------------------------------------------------
    def _compile_churn(
        self, rng: np.random.Generator
    ) -> List[ServerChurnEvent]:
        churn = self.plan.churn
        events = [
            e for e in churn.events
            if e.fail_at_s < self.duration_s
        ]
        for event in events:
            if event.server_index >= self.n_servers:
                raise ConfigurationError(
                    f"churn targets server {event.server_index} but only "
                    f"{self.n_servers} are deployed"
                )
        if churn.failures_per_hour > 0:
            expected = churn.failures_per_hour * self.duration_s / 3600.0
            for _ in range(int(rng.poisson(expected))):
                fail_at = float(rng.uniform(0.0, self.duration_s))
                downtime = float(rng.exponential(churn.mean_downtime_s))
                recover: Optional[float] = fail_at + downtime
                if recover >= self.duration_s:
                    recover = None
                events.append(ServerChurnEvent(
                    server_index=int(rng.integers(self.n_servers)),
                    fail_at_s=fail_at,
                    recover_at_s=recover,
                ))
        return sorted(events, key=lambda e: e.fail_at_s)

    # ------------------------------------------------------------------
    @staticmethod
    def _in_windows(
        t: float, starts: List[float], windows: List[Window]
    ) -> bool:
        index = bisect.bisect_right(starts, t) - 1
        return index >= 0 and t < windows[index][1]

    def telemetry_fate(self, t: float) -> TelemetryFate:
        """Decide what happens to the sample taken at time ``t``.

        Dropout wins over freeze when windows overlap. Tallies the
        injected fault.
        """
        if not self._dropout_starts and not self._freeze_starts:
            return TelemetryFate.OK
        if self._in_windows(t, self._dropout_starts, self.dropout_windows):
            self.dropped_ticks += 1
            return TelemetryFate.DROPPED
        if self._in_windows(t, self._freeze_starts, self.freeze_windows):
            self.frozen_ticks += 1
            return TelemetryFate.FROZEN
        return TelemetryFate.OK

    def perturb_sample(self, value: float) -> float:
        """Apply spike noise on top of the interface's Gaussian noise."""
        telemetry = self.plan.telemetry
        if telemetry.spike_prob <= 0:
            return value
        if float(self._spike_rng.random()) < telemetry.spike_prob:
            self.spikes_injected += 1
            sign = 1.0 if float(self._spike_rng.random()) < 0.5 else -1.0
            return value * (1.0 + sign * telemetry.spike_magnitude)
        return value

    def actuation_extra_delay(self) -> float:
        """Beyond-spec delay for the command being issued (0.0 = on time)."""
        actuation = self.plan.actuation
        if actuation.delay_prob <= 0:
            return 0.0
        if float(self._delay_rng.random()) < actuation.delay_prob:
            self.delayed_actuations += 1
            return float(self._delay_rng.exponential(actuation.extra_delay_s))
        return 0.0

    @property
    def dropout_window_count(self) -> int:
        """Number of distinct (merged) dropout windows in the schedule."""
        return len(self.dropout_windows)
