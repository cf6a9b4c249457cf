"""Basic statistics used throughout the characterization and evaluation.

The paper reports p50/p99/max latencies normalized to an uncapped baseline
(Figures 13-17), and validates its synthetic trace against the production
power time series using Mean Absolute Percentage Error (Section 6.4,
"MAPE ... is within 3%"). Both primitives live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Percentiles conventionally reported by the paper's evaluation figures.
REPORTED_PERCENTILES = (50.0, 99.0, 100.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile of ``values``.

    Args:
        values: Observations; must be non-empty.
        q: Percentile in ``[0, 100]``; ``100`` returns the maximum.

    Raises:
        ConfigurationError: If ``values`` is empty or ``q`` is out of range.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ConfigurationError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q={q} outside [0, 100]")
    return float(np.percentile(data, q))


def mean_absolute_percentage_error(
    reference: Sequence[float], candidate: Sequence[float]
) -> float:
    """Return MAPE between a reference and a candidate series, as a fraction.

    This is the trace-fidelity criterion from Section 6.4: the synthetic
    request trace is accepted when the MAPE between the synthetic and the
    original power time series is within 3% (i.e. ``<= 0.03``).

    Args:
        reference: Ground-truth series. Entries must be non-zero.
        candidate: Series under test; must have the same length.

    Raises:
        ConfigurationError: On length mismatch, empty input, or a zero
            reference entry (the percentage error would be undefined).
    """
    ref = np.asarray(list(reference), dtype=float)
    cand = np.asarray(list(candidate), dtype=float)
    if ref.size == 0:
        raise ConfigurationError("MAPE of empty series is undefined")
    if ref.shape != cand.shape:
        raise ConfigurationError(
            f"series length mismatch: {ref.shape} vs {cand.shape}"
        )
    if np.any(ref == 0.0):
        raise ConfigurationError("reference series contains zeros; MAPE undefined")
    return float(np.mean(np.abs((cand - ref) / ref)))


def normalized(values: Sequence[float], baseline: float) -> np.ndarray:
    """Normalize ``values`` by a scalar ``baseline`` (e.g. TDP, uncapped p50).

    Raises:
        ConfigurationError: If ``baseline`` is not strictly positive.
    """
    if baseline <= 0.0:
        raise ConfigurationError(f"baseline must be positive, got {baseline}")
    return np.asarray(list(values), dtype=float) / baseline


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency population.

    Attributes:
        count: Number of observations.
        p50: Median latency in seconds.
        p99: 99th percentile latency in seconds.
        maximum: Maximum observed latency in seconds.
        mean: Arithmetic mean latency in seconds.
    """

    count: int
    p50: float
    p99: float
    maximum: float
    mean: float

    def normalized_to(self, baseline: "LatencySummary") -> Dict[str, float]:
        """Return p50/p99/max ratios against a baseline summary.

        This is the "Normalized pXX latency" metric on the y-axes of
        Figures 13, 15, and 17.
        """
        if baseline.p50 <= 0 or baseline.p99 <= 0 or baseline.maximum <= 0:
            raise ConfigurationError("baseline summary has non-positive percentiles")
        return {
            "p50": self.p50 / baseline.p50,
            "p99": self.p99 / baseline.p99,
            "max": self.maximum / baseline.maximum,
        }


def summarize_latencies(latencies: Iterable[float]) -> LatencySummary:
    """Compute the :class:`LatencySummary` for a latency population.

    Raises:
        ConfigurationError: If no latencies were observed.
    """
    if not isinstance(latencies, (list, np.ndarray)):
        latencies = list(latencies)
    data = np.asarray(latencies, dtype=float)
    if data.size == 0:
        raise ConfigurationError("cannot summarize an empty latency population")
    p50, p99 = np.percentile(data, (50, 99))
    return LatencySummary(
        count=int(data.size),
        p50=float(p50),
        p99=float(p99),
        maximum=float(data.max()),
        mean=float(data.mean()),
    )
