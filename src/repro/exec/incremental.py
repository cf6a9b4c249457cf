"""Checkpointed incremental re-simulation for controller sweeps.

The paper's evaluation (Figs 13-18) is a dense grid over *controller
parameters*: most sweep points share the cluster configuration and
request trace and differ only in policy thresholds. A policy influences
the simulation through exactly three calls per control step —
``wants_brake``, ``brake_release_ok``, ``desired_caps`` — so two
policies that answer those calls identically produce bit-identical
trajectories. This module exploits that:

* the first run of a *family* (same :class:`~repro.cluster.simulator
  .ClusterConfig` + duration, policy excluded — see
  :func:`family_digest`) runs under a :class:`TapePolicy` that records
  every control-step input/output pair, and writes
  :meth:`~repro.cluster.core.SimulationCore.checkpoint` blobs at epoch
  boundaries into the :class:`~repro.exec.cache.RunCache` blob layer.
  A blob holds only the run's changing state — requests are trace
  indices, and the policy, trace and arrival/tick stream stay out — so
  it costs a fraction of pickling the whole core;
* a later sweep point in the same family replays its *own* policy
  against the recorded inputs to find the first control step where the
  answers diverge, restores the latest checkpoint at or before that
  step, replays the matching prefix into a fresh policy instance to
  rebuild its hysteresis state, and simulates only the suffix;
* a policy that matches the whole tape reuses the base result outright.

The replay is sound because the recorded inputs (utilization, time,
which brake call fires) are functions of the simulator trajectory,
which is identical while the outputs match: the first divergence found
against the tape is the first divergence of a real run. Checkpoints
restore bit-identically (the codec round-trips every piece of changing
state, RNG streams included, and rebuilds the rest from the trace), so
suffix replay equals straight-through simulation — the parity tests
assert this exactly, adversarial fault plans included.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.core import SimulationCore
from repro.cluster.metrics import SimulationResult
from repro.cluster.policy_base import GroupCaps, PowerPolicy
from repro.cluster.simulator import ClusterSimulator
from repro.errors import ConfigurationError
from repro.exec import traces
from repro.exec.cache import RunCache
from repro.exec.runspec import (
    DIGEST_VERSION,
    RunSpec,
    _canonical,
    execute_spec,
)
from repro.obs.recorder import TraceRecorder

#: Bump when the tape/checkpoint blob layout changes incompatibly;
#: embedded in :func:`family_digest`, so stale blobs become unreachable
#: rather than mis-read. Schema 3: the pickled event queue holds the
#: arrivals and ticks in a pre-sorted list beside its heap. Schema 4:
#: checkpoints are ``SimulationCore.checkpoint`` blobs (trace indices
#: for requests, a count for the pre-sorted stream, no policy) and the
#: tape stores its :class:`StepRecord`\ s as plain tuples. Schema 5:
#: the tape holds no event stream (recorded runs execute cold).
#: Schema 6: checkpoints hold the core's serve log
#: (:class:`~repro.cluster.metrics.ServeLogBuilder`) in place of its
#: per-priority and per-workload metric dicts. Schema 7: the pickled
#: actuator keeps no command history or in-flight list. Schema 8: a
#: pickled slot holds its phases as floats, not ``PhaseSegment``\ s.
INCREMENTAL_SCHEMA = 8


def family_digest(spec: RunSpec) -> str:
    """The digest of everything the spec's *simulation* shares.

    Policy is deliberately excluded: all sweep points with the same
    config, duration, and trace source replay the same trace through
    the same cluster and may share checkpoints up to their first
    controller divergence. The trace source *is* included — a replayed
    CSV and the synthetic pipeline are different simulations even under
    identical configs.
    """
    payload = json.dumps(
        {
            "digest_version": DIGEST_VERSION,
            "incremental_schema": INCREMENTAL_SCHEMA,
            "config": _canonical(spec.config),
            "duration_s": repr(spec.duration_s),
            "trace": _canonical(spec.trace),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class StepRecord(NamedTuple):
    """One control step as the policy saw it.

    A named tuple, so the family tape can store its thousands of steps
    as plain tuples.

    Attributes:
        now: Simulation time of the telemetry delivery.
        utilization: Row utilization handed to the policy.
        brake_call: Which brake predicate the simulator consulted this
            step — ``"want"``, ``"release"``, or ``None`` (neither: the
            brake was engaged but still inside its hold window).
        brake_result: The predicate's answer (``None`` iff no call).
        caps: The caps the policy asked for.
    """

    now: float
    utilization: float
    brake_call: Optional[str]
    brake_result: Optional[bool]
    caps: GroupCaps


class TapePolicy(PowerPolicy):
    """Forwarding wrapper that records the control-step tape.

    Wraps any :class:`~repro.cluster.policy_base.PowerPolicy` without
    changing its behavior: every call is forwarded verbatim (so the
    wrapped run stays bit-identical), and each ``desired_caps`` call —
    the unconditional last policy call of a control step — closes one
    :class:`StepRecord` on :attr:`tape`.
    """

    def __init__(self, inner: PowerPolicy) -> None:
        self.inner = inner
        self.tape: List[StepRecord] = []
        self._pending: Optional[Tuple[str, bool]] = None
        # Shadow the PowerPolicy *class* attributes with the wrapped
        # policy's values — class attributes resolve before
        # ``__getattr__``, which only covers names the base class does
        # not define.
        self.name = inner.name
        self.brake_threshold = inner.brake_threshold
        self.brake_release = inner.brake_release

    def __getattr__(self, name: str) -> Any:
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def wants_brake(self, utilization: float) -> bool:
        result = self.inner.wants_brake(utilization)
        self._pending = ("want", result)
        return result

    def brake_release_ok(self, utilization: float) -> bool:
        result = self.inner.brake_release_ok(utilization)
        self._pending = ("release", result)
        return result

    def desired_caps(self, utilization: float, now: float = 0.0) -> GroupCaps:
        caps = self.inner.desired_caps(utilization, now)
        call, result = self._pending if self._pending else (None, None)
        self.tape.append(StepRecord(now, utilization, call, result, caps))
        self._pending = None
        return caps

    def reset(self) -> None:
        self.inner.reset()
        self.tape.clear()
        self._pending = None


def _feed_step(policy: PowerPolicy, record: StepRecord) -> bool:
    """Drive one recorded step through ``policy``; True if it matches.

    Issues exactly the calls the original run's policy received —
    including ``desired_caps`` after a divergent brake answer, since
    the simulator calls it unconditionally — so the policy's internal
    hysteresis state tracks a real run step for step.
    """
    if record.brake_call == "want":
        brake = policy.wants_brake(record.utilization)
    elif record.brake_call == "release":
        brake = policy.brake_release_ok(record.utilization)
    else:
        brake = record.brake_result
    caps = policy.desired_caps(record.utilization, record.now)
    return brake == record.brake_result and caps == record.caps


def first_divergence(
    records: Sequence[StepRecord], policy: PowerPolicy
) -> Optional[int]:
    """Index of the first step where ``policy`` answers differently.

    ``None`` means the policy matches the entire tape (and would
    reproduce the base run bit-for-bit). The probe policy is consumed:
    its state afterwards is only meaningful up to the returned index.
    """
    for index, record in enumerate(records):
        if not _feed_step(policy, record):
            return index
    return None


@dataclass
class IncrementalStats:
    """What the incremental executor actually did (cumulative).

    Attributes:
        base_runs: Family-first runs simulated in full while recording
            the tape and checkpoints.
        resumed_runs: Runs restored from a checkpoint and replayed only
            past it.
        reused_results: Full-tape matches answered with the base
            family's result, no simulation at all.
        cold_runs: Runs simulated in full with no reuse (divergence
            before the first checkpoint, or evicted blobs).
        saved_s: Total simulated seconds skipped via restores.
        replayed_s: Total simulated seconds actually re-run on resumes.
    """

    base_runs: int = 0
    resumed_runs: int = 0
    reused_results: int = 0
    cold_runs: int = 0
    saved_s: float = 0.0
    replayed_s: float = 0.0


class IncrementalExecutor:
    """Executes :class:`~repro.exec.runspec.RunSpec`\\ s incrementally.

    Attributes:
        cache: The :class:`~repro.exec.cache.RunCache` holding tape and
            checkpoint blobs (and, through the engine, results).
        checkpoint_epoch_s: Simulation-time spacing of checkpoints
            recorded during each family's base run.
        stats: Cumulative :class:`IncrementalStats`.
    """

    def __init__(
        self, cache: RunCache, checkpoint_epoch_s: float = 600.0
    ) -> None:
        if checkpoint_epoch_s <= 0:
            raise ConfigurationError("checkpoint_epoch_s must be positive")
        self.cache = cache
        self.checkpoint_epoch_s = checkpoint_epoch_s
        self.stats = IncrementalStats()

    # ------------------------------------------------------------------
    def execute(
        self,
        spec: RunSpec,
        recorder: Optional[TraceRecorder] = None,
    ) -> SimulationResult:
        """Run one spec, reusing the family's prefix when possible.

        A recorded run (an enabled ``recorder``) runs cold through
        :func:`~repro.exec.runspec.execute_spec` and counts in
        ``stats.cold_runs``: its trace and observability are a cold
        run's by construction, and it neither reads nor writes the
        family's tape and checkpoints. Unrecorded runs lay down the
        family tape, resume from a checkpoint, or reuse the base
        result.
        """
        if recorder is not None and recorder.enabled:
            self.stats.cold_runs += 1
            return execute_spec(spec, recorder=recorder)
        family = family_digest(spec)
        meta = self._load_tape(family)
        if meta is None:
            return self._base_run(spec, family)
        return self._variant_run(spec, family, meta)

    # ------------------------------------------------------------------
    def _load_tape(self, family: str) -> Optional[Dict[str, Any]]:
        blob = self.cache.get_blob(f"{family}-tape")
        if blob is None:
            return None
        try:
            meta = pickle.loads(blob)
        except Exception:
            return None
        if not isinstance(meta, dict) \
                or meta.get("schema") != INCREMENTAL_SCHEMA:
            return None
        meta["records"] = list(map(StepRecord._make, meta["records"]))
        return meta

    def _base_run(self, spec: RunSpec, family: str) -> SimulationResult:
        """Full run under the tape recorder, checkpointing each epoch."""
        policy = TapePolicy(spec.policy.build())
        requests = traces.requests_for(spec.trace_key())
        core = ClusterSimulator(spec.config, policy).start(
            requests, spec.duration_s
        )
        epochs: List[float] = []

        def checkpoint(when: float, live_core: SimulationCore) -> None:
            self.cache.put_blob(
                f"{family}-ckpt-{len(epochs)}", live_core.checkpoint()
            )
            epochs.append(when)

        core.run_all(self.checkpoint_epoch_s, checkpoint)
        result = core.finalize()
        meta = {
            "schema": INCREMENTAL_SCHEMA,
            # Plain tuples: pickling named tuples calls back into
            # Python for every record, several times slower.
            "records": list(map(tuple, policy.tape)),
            "epochs": epochs,
            "result_digest": spec.digest(),
        }
        self.cache.put_blob(
            f"{family}-tape",
            pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.stats.base_runs += 1
        return result

    def _variant_run(
        self, spec: RunSpec, family: str, meta: Dict[str, Any]
    ) -> SimulationResult:
        """Resume past the longest matching prefix of the family tape."""
        records: List[StepRecord] = meta["records"]
        probe = spec.policy.build()
        probe.reset()
        divergence = first_divergence(records, probe)
        if divergence is None:
            base = self.cache.get(meta["result_digest"])
            if base is not None:
                # The policy matches the base run's every answer: the
                # trajectory (hence the result) is identical.
                self.stats.reused_results += 1
                return base
            horizon = None  # full match, result lost: resume at the end
        else:
            horizon = records[divergence].now
        # The latest checkpoint taken at or before the divergent step
        # (its control event is >= the boundary, so it has not run yet
        # in the restored core). Evicted blobs degrade to earlier
        # checkpoints, then to a cold run.
        candidates = [
            (index, when)
            for index, when in enumerate(meta["epochs"])
            if horizon is None or when <= horizon
        ]
        for index, when in reversed(candidates):
            blob = self.cache.get_blob(f"{family}-ckpt-{index}")
            if blob is not None:
                return self._resume(spec, records, blob, when)
        self.stats.cold_runs += 1
        return execute_spec(spec)

    def _resume(
        self,
        spec: RunSpec,
        records: Sequence[StepRecord],
        blob: bytes,
        when: float,
    ) -> SimulationResult:
        policy = spec.policy.build()
        policy.reset()
        # Rebuild the policy's hysteresis state as of the checkpoint:
        # replay every control step strictly before it (the step at the
        # boundary, if any, has not been processed by the restored
        # core). All of these matched during divergence probing, so the
        # state equals a real run's.
        for record in records:
            if record.now >= when:
                break
            _feed_step(policy, record)
        core = SimulationCore.restore(
            blob, traces.requests_for(spec.trace_key()), policy
        )
        core.run_all()
        self.stats.resumed_runs += 1
        self.stats.saved_s += when
        self.stats.replayed_s += spec.duration_s - when
        return core.finalize()
