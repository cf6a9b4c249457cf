"""Common machinery for sampled telemetry interfaces.

Every monitoring interface in Table 1 is, abstractly, a sampler over a
continuous power signal with three properties: a sampling interval, a
measurement path (in-band or out-of-band), and a noise/staleness profile.
:class:`SampledInterface` captures that shape once; the concrete interfaces
(DCGM, IPMI, SMBPBI, row manager) configure it.

:meth:`SampledInterface.observe` measures one value: it is how the
cluster simulator reads its running row power on every telemetry tick.
The DCGM-rate traces of Figures 4 and 6 come from the training and
inference models' own sampling loops (:mod:`repro.training.iteration`,
:mod:`repro.characterization.inference`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class SampledInterface:
    """A periodic, noisy, possibly delayed measurement of one signal.

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

    def observe(self, now: float, value: float) -> Tuple[float, float]:
        """Measure ``value``, the signal's level at ``now``.

        Returns ``(available_at, measured)``: the time the reading
        becomes available (``now + delay``) and the value with this
        interface's noise applied.
        """
        if self.noise_std > 0:
            value = value * (1.0 + self.noise_std * self._rng.standard_normal())
        return now + self.delay, value
