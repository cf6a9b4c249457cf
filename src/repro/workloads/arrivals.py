"""Diurnal nonhomogeneous Poisson arrival process.

Table 4 notes that the production inference cluster's power "shows a
diurnal pattern since it is an interactive workload; yet, over the course
of a few seconds, its power usage remains relatively stable". We model
arrivals as a Poisson process whose rate follows a smooth daily curve with
a weekly modulation and slow random drift, thinned from a constant
dominating rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.units import SECONDS_PER_DAY, SECONDS_PER_WEEK


@dataclass(frozen=True)
class DiurnalRateProfile:
    """Arrival-rate profile with daily and weekly structure.

    Attributes:
        base_rate: Mean arrival rate in requests/second.
        daily_amplitude: Relative amplitude of the daily sine (0.3 means
            the rate swings +-30% around the base over a day).
        weekly_amplitude: Relative amplitude of the weekly modulation
            (weekends are quieter).
        peak_hour: Local hour of the daily peak.
        noise_amplitude: Relative amplitude of slow random drift.
        noise_period_s: Correlation time of the drift.
        seed: Seed for the drift phase offsets.
    """

    base_rate: float
    daily_amplitude: float = 0.30
    weekly_amplitude: float = 0.08
    peak_hour: float = 15.0
    noise_amplitude: float = 0.05
    noise_period_s: float = 1800.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ConfigurationError("base_rate must be positive")
        total_amplitude = (
            self.daily_amplitude + self.weekly_amplitude + self.noise_amplitude
        )
        if total_amplitude >= 1.0:
            raise ConfigurationError(
                "combined amplitudes must stay below 1 (rate must be positive)"
            )

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` seconds."""
        daily_phase = 2.0 * math.pi * (
            (t / SECONDS_PER_DAY) - self.peak_hour / 24.0
        )
        weekly_phase = 2.0 * math.pi * t / SECONDS_PER_WEEK
        rng_phase = (self.seed % 997) * 0.618
        drift_phase = 2.0 * math.pi * t / self.noise_period_s * 0.037 + rng_phase
        factor = (
            1.0
            + self.daily_amplitude * math.cos(daily_phase)
            + self.weekly_amplitude * math.cos(weekly_phase)
            + self.noise_amplitude * math.sin(drift_phase)
        )
        return self.base_rate * factor

    @property
    def max_rate(self) -> float:
        """A dominating rate for thinning."""
        return self.base_rate * (
            1.0
            + self.daily_amplitude
            + self.weekly_amplitude
            + self.noise_amplitude
        )

    def rates(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rate` over an array of times."""
        daily_phase = 2.0 * np.pi * (
            times / SECONDS_PER_DAY - self.peak_hour / 24.0
        )
        weekly_phase = 2.0 * np.pi * times / SECONDS_PER_WEEK
        rng_phase = (self.seed % 997) * 0.618
        drift_phase = 2.0 * np.pi * times / self.noise_period_s * 0.037 + rng_phase
        factor = (
            1.0
            + self.daily_amplitude * np.cos(daily_phase)
            + self.weekly_amplitude * np.cos(weekly_phase)
            + self.noise_amplitude * np.sin(drift_phase)
        )
        return self.base_rate * factor


def thin_arrivals(
    rng: np.random.Generator,
    rate: Callable[[float], float],
    lam: float,
    start: float,
    end: float,
) -> List[float]:
    """Nonhomogeneous Poisson arrivals on ``(start, end)`` by thinning.

    Candidates come from a homogeneous process at the dominating rate
    ``lam``; each is kept with probability ``rate(t) / lam``. Per
    candidate the generator draws ``exponential`` and then ``random``;
    any reorder changes every trace.
    """
    exponential = rng.exponential
    random = rng.random
    scale = 1.0 / lam
    arrivals: List[float] = []
    t = start
    while True:
        t += exponential(scale)
        if t >= end:
            return arrivals
        if random() < rate(t) / lam:
            arrivals.append(t)


def generate_arrivals(
    profile: DiurnalRateProfile,
    start: float,
    end: float,
    seed: int = 0,
) -> List[float]:
    """Sample arrival times on ``[start, end)`` by Poisson thinning.

    Raises:
        ConfigurationError: If the window is empty.
    """
    if end <= start:
        raise ConfigurationError("end must be after start")
    return thin_arrivals(
        np.random.default_rng(seed), profile.rate, profile.max_rate,
        start, end,
    )
