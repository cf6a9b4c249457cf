"""Common machinery for sampled telemetry interfaces.

Every monitoring interface in Table 1 is, abstractly, a sampler over a
continuous power signal with three properties: a sampling interval, a
measurement path (in-band or out-of-band), and a noise/staleness profile.
:class:`SampledInterface` captures that shape once; the concrete interfaces
(DCGM, IPMI, SMBPBI, row manager) configure it.

:meth:`SampledInterface.read` samples a signal (a function of time);
:meth:`SampledInterface.observe` takes the value itself, which is how
the cluster simulator reads its running row power on every telemetry
tick. Both draw the measurement noise in one place, so the two give the
same readings from the same noise stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Tuple

import numpy as np

from repro.analysis.timeseries import TimeSeries, sample_times
from repro.errors import ConfigurationError, TelemetryError

#: A function of time returning the instantaneous value being monitored.
Signal = Callable[[float], float]


class TelemetrySample(NamedTuple):
    """One reading from a monitoring interface.

    A named tuple rather than a dataclass: a tuple is far cheaper to
    build, and series sampling takes one per reading.

    Attributes:
        time: When the reading became *available* to the consumer, which is
            the sample time plus the interface's reporting delay.
        value: The measured value (watts for power interfaces).
        sampled_at: When the underlying signal was actually observed.
    """

    time: float
    value: float
    sampled_at: float


@dataclass
class SampledInterface:
    """A periodic sampler over a continuous signal.

    Attributes:
        name: Interface name (for diagnostics).
        interval: Sampling period in seconds (Table 1's "Interval").
        in_band: Whether the interface is in-band (Table 1's "Path").
        delay: Reporting delay between observation and availability.
        noise_std: Gaussian measurement noise, as a *fraction* of the
            reading.
        seed: RNG seed for the noise process.
    """

    name: str
    interval: float
    in_band: bool
    delay: float = 0.0
    noise_std: float = 0.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(f"{self.name}: interval must be positive")
        if self.delay < 0:
            raise ConfigurationError(f"{self.name}: delay cannot be negative")
        self._rng = np.random.default_rng(self.seed)

    def read(self, now: float, signal: Signal) -> TelemetrySample:
        """Take one reading of ``signal`` at time ``now``.

        The returned sample carries the noisy value and its availability
        time (``now + delay``).
        """
        available_at, value = self.observe(now, float(signal(now)))
        return TelemetrySample(available_at, value, now)

    def observe(self, now: float, value: float) -> Tuple[float, float]:
        """Measure ``value``, the signal's level at ``now``.

        Returns ``(available_at, measured)``: the time the reading
        becomes available (``now + delay``) and the value with this
        interface's noise applied.
        """
        if self.noise_std > 0:
            value = value * (1.0 + self.noise_std * self._rng.standard_normal())
        return now + self.delay, value

    def sample_series(
        self, signal: Signal, start: float, end: float
    ) -> TimeSeries:
        """Sample ``signal`` over ``[start, end)`` at this interface's rate.

        Raises:
            TelemetryError: If the window is empty.
        """
        if end <= start:
            raise TelemetryError(f"{self.name}: empty sampling window")
        times = sample_times(start, end, self.interval)
        values = np.array([self.read(float(t), signal).value for t in times])
        return TimeSeries(start=start, interval=self.interval, values=values)
