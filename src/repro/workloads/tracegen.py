"""Synthetic request-trace generation against a production power trace.

Section 6.4, "Replicating production traces": the paper takes a six-week
power trace from the production inference cluster and generates a synthetic
request trace (arrival times plus input/output sizes) whose simulated power
matches the original within 3% MAPE. We have no access to the confidential
trace, so :class:`ProductionTraceModel` *stands in* for it: a diurnal
utilization signal calibrated to the aggregates the paper does publish
(Table 4: 79% peak utilization, diurnal shape). The substitution is sound
because every published result depends on the trace only through these
aggregate statistics.

:class:`SyntheticTraceGenerator` then performs the paper's actual step:
inverting a fluid power model of the cluster to recover the arrival-rate
profile that reproduces the target power, and validating the round trip
with the MAPE criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import mean_absolute_percentage_error
from repro.analysis.timeseries import TimeSeries, sample_times
from repro.errors import ConfigurationError, TraceError
from repro.gpu.specs import A100_80GB
from repro.models.performance import RooflineLatencyModel
from repro.models.power_profile import PhasePowerProfile
from repro.models.registry import get_model
from repro.server.dgx import DgxServer
from repro.units import SECONDS_PER_DAY, SECONDS_PER_WEEK, weeks
from repro.workloads.arrivals import thin_arrivals
from repro.workloads.requests import RequestSampler, SampledRequest
from repro.workloads.spec import TABLE6_MIX, WorkloadSpec

#: Per-server power budgeted in the production inference row. Derated well
#: below the 6.5 kW DGX rating (Section 5 advocates >=800 W derating);
#: calibrated so a busy cluster peaks at Table 4's 79% utilization.
INFERENCE_PROVISIONED_PER_SERVER_W = 5000.0

#: Trace duration used by the paper (June 21 to August 2, 2023).
TRACE_WEEKS = 6


def smooth_same(values: np.ndarray, window: int) -> np.ndarray:
    """Boxcar smoothing normalized by the *actual* kernel overlap.

    ``np.convolve(x, ones(w) / w, mode="same")`` zero-pads the signal,
    so the first and last ``w // 2`` outputs average real samples with
    implicit zeros and are dragged toward zero — smoothing a constant
    signal returns less than the constant at the edges, which biases
    trace boundaries and inflates MAPE at trace start/end. Dividing by
    the convolved all-ones mask instead averages each bin over exactly
    the samples the kernel really covers, so a constant stays constant
    everywhere (edges included) and interior bins are unchanged.
    """
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if window == 1 or values.size == 0:
        return np.asarray(values, dtype=float).copy()
    # mode="full" then center-slice: numpy's mode="same" returns
    # max(len(values), window) outputs, so a window wider than the
    # signal would change the length. The slice below reproduces
    # mode="same" alignment for window <= len(values) and stays
    # length-preserving beyond it.
    kernel = np.ones(window)
    n = values.size
    lo = (window - 1) // 2
    summed = np.convolve(values, kernel, mode="full")[lo:lo + n]
    overlap = np.convolve(np.ones(n), kernel, mode="full")[lo:lo + n]
    return summed / overlap


@dataclass(frozen=True)
class FluidClusterModel:
    """Closed-form expected power of an inference cluster at slot load rho.

    Each server has ``concurrency`` continuous-batching slots; at slot
    utilization ``rho`` the per-server occupancy is Binomial(C, rho). A
    server's power depends on its occupancy (decode activity rises mildly
    with batch) and on whether any resident request is in its prompt phase
    (compute spike).

    Attributes:
        n_servers: Servers in the row.
        concurrency: Slots per server.
        idle_power_w: Per-server idle power.
        occupancy_power_w: Per-server mean power at occupancy k (index k,
            with prompt-phase time already averaged in).
        mean_service_s: Mean request service time.
    """

    n_servers: int
    concurrency: int
    idle_power_w: float
    occupancy_power_w: Tuple[float, ...]
    mean_service_s: float

    @classmethod
    def for_table6(
        cls,
        n_servers: int = 40,
        concurrency: int = 4,
        mix: Sequence[WorkloadSpec] = TABLE6_MIX,
    ) -> "FluidClusterModel":
        """Build the fluid model for a workload mix (Table 6 by default)
        on BLOOM-176B."""
        model = get_model("BLOOM-176B")
        latency = RooflineLatencyModel(model=model, gpu=A100_80GB)
        profile = PhasePowerProfile(model=model)
        server = DgxServer()
        total_time = 0.0
        prompt_time = 0.0
        prompt_activity = 0.0
        for workload in mix:
            # round(), not int(): a truncating cast floors non-integral
            # means (e.g. an odd-width range) and biases the fluid
            # model's service times low for custom mixes.
            prompt_tokens = round(workload.mean_prompt_tokens())
            output_tokens = round(workload.mean_output_tokens())
            phases = latency.request_latency(prompt_tokens, output_tokens)
            total_time += workload.share * phases.total_seconds
            prompt_time += workload.share * phases.prompt_seconds
            prompt_activity += workload.share * profile.prompt_activity(
                prompt_tokens
            )
        mean_service = total_time
        prompt_fraction = prompt_time / total_time
        prompt_power = server.server_power_uniform(0.0, prompt_activity)
        occupancy_power = [server.server_power_uniform(0.0, 0.0)]
        for k in range(1, concurrency + 1):
            token_power = server.server_power_uniform(
                0.0, profile.token_activity(k)
            )
            # Probability any of the k resident requests is in its prompt.
            p_prompt = 1.0 - (1.0 - prompt_fraction) ** k
            occupancy_power.append(
                p_prompt * prompt_power + (1.0 - p_prompt) * token_power
            )
        return cls(
            n_servers=n_servers,
            concurrency=concurrency,
            idle_power_w=occupancy_power[0],
            occupancy_power_w=tuple(occupancy_power),
            mean_service_s=mean_service,
        )

    def power_at_utilization(self, rho: float) -> float:
        """Expected cluster power at slot utilization ``rho``.

        Occupancy per server is Binomial(concurrency, rho); the expected
        per-server power is the occupancy-weighted mean.
        """
        if not 0.0 <= rho <= 1.0:
            raise ConfigurationError(f"utilization {rho} outside [0, 1]")
        # Scalar on purpose: numpy's power differs from Python's ** in the
        # last ulp on 5-6 % of inputs for k >= 2, which moves the rates.
        c = self.concurrency
        expected = 0.0
        for k in range(c + 1):
            weight = math.comb(c, k) * (rho ** k) * ((1 - rho) ** (c - k))
            expected += weight * self.occupancy_power_w[k]
        return self.n_servers * expected

    def utilization_for_power(self, power_w: float) -> float:
        """Invert :meth:`power_at_utilization` by bisection, clipped to
        ``[0, 1]`` (the power curve is strictly increasing in rho)."""
        if power_w <= self.power_at_utilization(0.0):
            return 0.0
        if power_w >= self.power_at_utilization(1.0):
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if self.power_at_utilization(mid) < power_w:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def arrival_rate_for_utilization(self, rho: float) -> float:
        """Cluster arrival rate sustaining slot utilization ``rho``
        (Little's law: ``lambda = rho * n * C / E[S]``)."""
        if not 0.0 <= rho <= 1.0:
            raise ConfigurationError(f"utilization {rho} outside [0, 1]")
        return rho * self.n_servers * self.concurrency / self.mean_service_s


@dataclass(frozen=True)
class ProductionTraceModel:
    """Stand-in for the confidential production power trace.

    Produces a row power-utilization time series with Table 4's published
    character: diurnal with weekly structure, peaking at ~79% of
    provisioned power, stable over seconds.

    Attributes:
        mean_utilization: Mean utilization level.
        daily_amplitude: Daily swing around the mean.
        weekly_amplitude: Weekly swing.
        noise_std: Slow residual noise.
        peak_hour: Hour of daily peak.
        seed: RNG seed.
    """

    mean_utilization: float = 0.545
    daily_amplitude: float = 0.125
    weekly_amplitude: float = 0.015
    noise_std: float = 0.005
    peak_hour: float = 15.0
    seed: int = 0

    def generate(
        self, duration_s: float = weeks(TRACE_WEEKS), interval_s: float = 300.0
    ) -> TimeSeries:
        """Generate the utilization trace (fraction of provisioned power).

        Raises:
            ConfigurationError: On a non-positive duration.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        rng = np.random.default_rng(self.seed)
        # Integer-indexed grid: a float-step arange can emit a sample at
        # or past duration_s on adversarial (duration, interval) pairs.
        times = sample_times(0.0, duration_s, interval_s)
        daily = np.cos(
            2 * np.pi * (times / SECONDS_PER_DAY - self.peak_hour / 24.0)
        )
        weekly = np.cos(2 * np.pi * times / SECONDS_PER_WEEK)
        noise = rng.normal(0.0, self.noise_std, size=times.size)
        # Smooth the noise so consecutive samples stay correlated (the
        # production signal is stable at short horizons; Table 4).
        smooth_noise = smooth_same(noise, 7)
        values = (
            self.mean_utilization
            + self.daily_amplitude * daily
            + self.weekly_amplitude * weekly
            + smooth_noise
        )
        return TimeSeries(start=0.0, interval=interval_s,
                          values=np.clip(values, 0.05, 1.0))


def _bin_rate(
    rates: Sequence[float], start: float, interval_s: float
) -> Callable[[float], float]:
    """Per-bin rate lookup: the rate of the bin holding ``t``.

    A candidate whose bin index falls before the first bin or past the
    last (``(t - start) // interval`` can round up to the bin count just
    before the trace end) takes the nearest bin's rate instead of
    indexing out of range.
    """
    last = len(rates) - 1

    def rate(t: float) -> float:
        index = int((t - start) // interval_s)
        if index < 0:
            return rates[0]
        if index > last:
            return rates[last]
        return rates[index]

    return rate


@dataclass(frozen=True)
class SyntheticTrace:
    """A generated request trace plus its fidelity metadata.

    Attributes:
        requests: The sampled requests, sorted by arrival time.
        target_power: The production power series being replicated (W).
        reconstructed_power: The fluid-model power of the synthetic trace.
        mape: MAPE between target and reconstruction.
    """

    requests: List[SampledRequest]
    target_power: TimeSeries
    reconstructed_power: TimeSeries
    mape: float

    def validate(self, tolerance: float = 0.03) -> None:
        """Assert the paper's MAPE-within-3% criterion.

        Raises:
            TraceError: If the reconstruction misses the tolerance.
        """
        if self.mape > tolerance:
            raise TraceError(
                f"synthetic trace MAPE {self.mape:.4f} exceeds {tolerance}"
            )


@dataclass
class SyntheticTraceGenerator:
    """Generates request traces replicating a target power trace.

    Attributes:
        n_servers: Servers in the simulated row.
        provisioned_per_server_w: Power budget per server slot.
        seed: RNG seed for arrival sampling and request sizing.
    """

    n_servers: int = 40
    provisioned_per_server_w: float = INFERENCE_PROVISIONED_PER_SERVER_W
    seed: int = 0
    fluid: FluidClusterModel = field(init=False)

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ConfigurationError("n_servers must be positive")
        self.fluid = FluidClusterModel.for_table6(self.n_servers)

    @property
    def provisioned_power_w(self) -> float:
        """Row power budget."""
        return self.n_servers * self.provisioned_per_server_w

    def generate(self, utilization_trace: TimeSeries) -> SyntheticTrace:
        """Generate a request trace replicating the utilization trace.

        The target utilization is converted to power, inverted through the
        fluid model to per-bin arrival rates, and sampled as a
        nonhomogeneous Poisson process with Table 6 request sizing. The
        reconstruction (fluid power of the realized arrivals) is compared
        to the target with MAPE.

        Raises:
            ConfigurationError: If the trace is empty.
        """
        if len(utilization_trace) == 0:
            raise ConfigurationError("empty utilization trace")
        interval = utilization_trace.interval
        target_power = utilization_trace.values * self.provisioned_power_w
        rhos = np.array([
            self.fluid.utilization_for_power(float(p)) for p in target_power
        ])
        rates = [
            self.fluid.arrival_rate_for_utilization(float(r)) for r in rhos
        ]
        start = utilization_trace.start
        end = start + len(utilization_trace) * interval
        arrivals = thin_arrivals(
            np.random.default_rng(self.seed),
            _bin_rate(rates, start, interval),
            max(max(rates), 1e-9), start, end,
        )
        requests = RequestSampler(seed=self.seed + 1).sample_many(arrivals)
        reconstructed = self._reconstruct_power(
            arrivals, start, end, interval
        )
        mape = mean_absolute_percentage_error(
            target_power, reconstructed.values
        )
        return SyntheticTrace(
            requests=requests,
            target_power=TimeSeries(
                start=utilization_trace.start,
                interval=interval,
                values=target_power,
            ),
            reconstructed_power=reconstructed,
            mape=mape,
        )

    def _reconstruct_power(
        self, arrivals: List[float], start: float, end: float, interval: float
    ) -> TimeSeries:
        """Fluid power implied by the realized arrivals, per bin."""
        n_bins = int(round((end - start) / interval))
        # In place, so synthesis holds at most two per-arrival arrays.
        index = np.array(arrivals, dtype=float)
        index -= start
        index //= interval
        np.minimum(index, n_bins - 1, out=index)
        counts = np.bincount(
            index.astype(np.int64), minlength=n_bins
        ).astype(float)
        # Little's law per bin: busy fraction = lambda * E[S] / n.
        rho = (counts / interval * self.fluid.mean_service_s
               / (self.n_servers * self.fluid.concurrency))
        # Smooth over ~30 min to estimate the underlying rate rather than
        # per-bin Poisson noise (the paper compares smoothed power).
        window = max(1, int(round(1800.0 / interval)))
        rho_smooth = np.clip(smooth_same(rho, window), 0.0, 1.0)
        power = np.array([
            self.fluid.power_at_utilization(float(r)) for r in rho_smooth
        ])
        return TimeSeries(start=start, interval=interval, values=power)
