"""Picklable run descriptors with stable content digests.

A :class:`RunSpec` is the unit of work of the sweep engine: the full
cluster configuration, the policy (by factory name + thresholds, not as
a live object), and the trace key. Specs are small frozen dataclasses —
cheap to pickle into worker processes — and hash to a deterministic
content digest that keys the run memo cache.

Policies are described declaratively so that (a) a spec pickles without
dragging simulator state along and (b) two sweeps asking for the same
policy configuration produce the same digest even when they construct
distinct policy objects.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.metrics import SimulationResult
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.errors import ConfigurationError
from repro.exec import traces
from repro.workloads.replay import TraceSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.policy_base import PowerPolicy
    from repro.core.policy import PolcaThresholds
    from repro.obs.recorder import TraceRecorder

#: Bump to invalidate every digest (and hence on-disk cache entry) when
#: simulator semantics change incompatibly. Version 2: the energy and
#: breaker-exposure integrals clamp at ``duration_s`` instead of
#: covering the post-duration drain of in-flight requests. Version 3:
#: ``ClusterConfig`` grew the power-delivery ``protection`` section
#: (breaker topology, trip curves, emergency shedding), which changes
#: the canonical config payload for every spec. Version 4: specs grew
#: the ``trace`` replay source, and the float-grid/smoothing-edge bug
#: sweep changed the synthetic trace pipeline's output. Version 5: a
#: telemetry reading that would arrive after ``duration_s`` no longer
#: reaches the policy, which changes results of delayed-telemetry specs.
DIGEST_VERSION = 5

#: Policy factory names the engine can build (``all_policies()`` keys).
POLICY_NAMES = (
    "POLCA", "1-Thresh-Low-Pri", "1-Thresh-All", "No-cap", "Unmanaged",
)


@dataclass(frozen=True)
class PolicySpec:
    """A policy described by factory name (plus POLCA thresholds).

    Attributes:
        name: One of :data:`POLICY_NAMES`.
        thresholds: POLCA threshold configuration; only valid (and always
            normalized to an explicit value, so digests deduplicate) for
            ``name="POLCA"``.
    """

    name: str = "POLCA"
    thresholds: Optional["PolcaThresholds"] = None

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.name!r}; expected one of "
                f"{', '.join(POLICY_NAMES)}"
            )
        if self.name == "POLCA":
            if self.thresholds is None:
                from repro.core.policy import POLCA_DEFAULTS

                object.__setattr__(self, "thresholds", POLCA_DEFAULTS)
        elif self.thresholds is not None:
            raise ConfigurationError(
                f"thresholds only apply to POLCA, not {self.name!r}"
            )

    def build(self) -> "PowerPolicy":
        """Instantiate a fresh policy object."""
        from repro.core.baselines import UnmanagedPolicy, all_policies
        from repro.core.policy import DualThresholdPolicy

        if self.name == "POLCA":
            return DualThresholdPolicy(self.thresholds)
        if self.name == "Unmanaged":
            # Not in all_policies(): the figure sweeps iterate that
            # registry and must stay the paper's four-policy set.
            return UnmanagedPolicy()
        return all_policies()[self.name]()


def policy_spec_for(policy: "PowerPolicy") -> Optional[PolicySpec]:
    """Recognize a live policy object as an engine-buildable spec.

    Returns ``None`` for custom policy classes or non-default baseline
    parameterizations — callers fall back to running those in-process.
    """
    from repro.core.baselines import (
        NoCapPolicy,
        SingleThresholdAllPolicy,
        SingleThresholdLowPriPolicy,
        UnmanagedPolicy,
    )
    from repro.core.policy import DualThresholdPolicy

    if type(policy) is DualThresholdPolicy:
        return PolicySpec("POLCA", policy.thresholds)
    if type(policy) is NoCapPolicy:
        return PolicySpec("No-cap")
    if type(policy) is UnmanagedPolicy:
        return PolicySpec("Unmanaged")
    if type(policy) is SingleThresholdLowPriPolicy:
        default = SingleThresholdLowPriPolicy()
        if (
            policy.threshold == default.threshold
            and policy.uncap_margin == default.uncap_margin
            and policy.lp_clock_mhz == default.lp_clock_mhz
        ):
            return PolicySpec("1-Thresh-Low-Pri")
    if type(policy) is SingleThresholdAllPolicy:
        default = SingleThresholdAllPolicy()
        if (
            policy.threshold == default.threshold
            and policy.uncap_margin == default.uncap_margin
            and policy.clock_mhz == default.clock_mhz
        ):
            return PolicySpec("1-Thresh-All")
    return None


def _canonical(value: Any) -> Any:
    """Reduce a value to JSON-serializable primitives, recursively.

    Dataclasses become ``{"__type__": name, **fields}`` so two different
    dataclass types with the same field values cannot collide; floats go
    through ``repr`` for an exact, platform-stable round-trip. Fields
    declaring ``metadata={"digest": False}`` are skipped — that is how
    replayed traces digest by content hash instead of by machine-local
    file path.
    """
    if is_dataclass(value) and not isinstance(value, type):
        out: Any = {"__type__": type(value).__name__}
        for f in fields(value):
            if f.metadata.get("digest") is False:
                continue
            out[f.name] = _canonical(getattr(value, f.name))
        return out
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise ConfigurationError(
        f"cannot canonicalize {type(value).__name__} for digesting"
    )


@dataclass(frozen=True)
class RunSpec:
    """One independent simulator run: config + policy + trace key.

    Attributes:
        config: The full cluster configuration (including any fault plan
            and reliability knobs).
        policy: The policy to run, declaratively.
        duration_s: Simulated duration.
        trace: Replay source for the request trace (``None`` = the
            default synthetic pipeline). Digested by content (file
            sha256 + slice), never by path.
    """

    config: ClusterConfig
    policy: PolicySpec
    duration_s: float
    trace: Optional[TraceSource] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")

    def trace_key(self) -> traces.TraceKey:
        """The request trace this run replays (derived, not stored)."""
        return traces.TraceKey(
            seed=self.config.seed,
            n_servers=self.config.n_servers,
            provisioned_per_server_w=self.config.provisioned_per_server_w,
            duration_s=self.duration_s,
            source=self.trace,
        )

    def digest(self) -> str:
        """Stable content hash keying the run memo cache."""
        payload = json.dumps(
            {"digest_version": DIGEST_VERSION, "spec": _canonical(self)},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def execute_spec(
    spec: RunSpec, recorder: Optional["TraceRecorder"] = None
) -> SimulationResult:
    """Run one spec to completion (the worker-process entry point).

    ``recorder`` threads an optional trace sink into the simulator —
    the engine's trace collector uses it to spool per-run events on the
    serial, pool-worker, and quarantine paths alike. Recording never
    perturbs the result.
    """
    policy = spec.policy.build()
    requests = traces.requests_for(spec.trace_key())
    simulator = ClusterSimulator(spec.config, policy, recorder=recorder)
    return simulator.run(requests, spec.duration_s)
