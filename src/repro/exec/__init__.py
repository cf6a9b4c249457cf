"""repro.exec — the parallel sweep-execution engine.

Every headline result of the paper (Figures 13-18) is a grid of
*independent* discrete-event simulator runs. This package turns those
grids into batches:

* :class:`~repro.exec.runspec.RunSpec` describes one run — cluster
  configuration, policy, and trace key — as a cheaply picklable value
  object with a stable content digest;
* :class:`~repro.exec.cache.RunCache` memoizes results by digest
  (in-memory, with an optional on-disk JSON layer), so the shared
  uncapped baseline and any duplicated grid point is simulated exactly
  once across the threshold search, the added-servers sweeps, the policy
  comparison, and the robustness studies;
* :class:`~repro.exec.engine.SweepEngine` fans cache misses out over a
  ``ProcessPoolExecutor`` (serial in-process fallback for ``workers=1``
  and for platforms without ``fork``), with deterministic result
  ordering — parallel output is bit-identical to serial because every
  run is independently seeded and executed by the same code path;
* :class:`~repro.exec.incremental.IncrementalExecutor` (enabled with
  ``EvaluationHarness(incremental=True)``) checkpoints the first run of
  each config/trace family and bit-exactly resumes later policy
  variants from their first divergence, so deep-prefix grid sweeps skip
  the shared simulation prefix instead of replaying it;
* :mod:`~repro.exec.profile` wraps ``cProfile``/``perf_counter`` —
  including the simulator's per-event-kind kernel timers via
  :func:`~repro.exec.profile.profile_kernels` — so hot-path work starts
  from data.

Request traces are shared process-wide through a bounded cache keyed on
``(seed, n_servers, provisioned power, duration)`` — see
:mod:`repro.exec.traces`.
"""

from repro.exec.cache import RunCache
from repro.exec.codec import result_from_dict, result_to_dict
from repro.exec.engine import (
    SweepEngine,
    default_workers,
    fork_available,
    parallel_map,
)
from repro.exec.incremental import (
    IncrementalExecutor,
    TapePolicy,
    family_digest,
    first_divergence,
)
from repro.exec.profile import (
    kernel_stats,
    profile_call,
    profile_kernels,
    timed,
)
from repro.exec.runspec import (
    PolicySpec,
    RunSpec,
    execute_spec,
    policy_spec_for,
)
from repro.exec.traces import TraceKey, requests_for

__all__ = [
    "IncrementalExecutor",
    "PolicySpec",
    "RunCache",
    "RunSpec",
    "SweepEngine",
    "TapePolicy",
    "TraceKey",
    "default_workers",
    "execute_spec",
    "family_digest",
    "first_divergence",
    "fork_available",
    "kernel_stats",
    "parallel_map",
    "policy_spec_for",
    "profile_call",
    "profile_kernels",
    "requests_for",
    "result_from_dict",
    "result_to_dict",
    "timed",
]
