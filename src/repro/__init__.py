"""repro — Characterizing Power Management Opportunities for LLMs in the Cloud.

A full reproduction of Patel et al., ASPLOS 2024: simulated substrates for
GPU power/DVFS behaviour, LLM roofline performance, DGX servers, cluster
telemetry and OOB control, training- and inference-cluster power patterns —
and POLCA, the dual-threshold power-oversubscription framework for LLM
inference clusters, evaluated with a discrete-event cluster simulator.

Quickstart::

    from repro import EvaluationHarness, DualThresholdPolicy
    from repro.units import hours

    harness = EvaluationHarness(duration_s=hours(6))
    baseline = harness.baseline()
    result = harness.run(DualThresholdPolicy(), added_fraction=0.30)
    print(result.power_brake_events)          # 0
    print(result.normalized_latencies(...))   # SLO-compliant

Subpackages: :mod:`repro.gpu`, :mod:`repro.models`, :mod:`repro.server`,
:mod:`repro.telemetry`, :mod:`repro.control`, :mod:`repro.datacenter`,
:mod:`repro.training`, :mod:`repro.workloads`, :mod:`repro.cluster`,
:mod:`repro.core` (POLCA), :mod:`repro.faults` (fault injection),
:mod:`repro.exec` (parallel sweep execution + run memoization),
:mod:`repro.obs` (trace recording, metrics, trace-vs-result
cross-checking), :mod:`repro.powerfail` (power-delivery fault domains:
breaker-trip modeling, cascading failure, emergency shedding, staged
recovery), :mod:`repro.characterization`, :mod:`repro.analysis`.
"""

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.core import (
    DualThresholdPolicy,
    EvaluationHarness,
    NoCapPolicy,
    POLCA_DEFAULTS,
    UnmanagedPolicy,
    evaluate_slos,
    select_thresholds,
)
from repro.faults import FaultPlan
from repro.gpu import A100_80GB, SimulatedGpu
from repro.models import RooflineLatencyModel, get_model
from repro.obs import AlertEngine
from repro.powerfail import ProtectionSpec
from repro.server import DgxServer
from repro.workloads import Priority

__version__ = "1.0.0"

#: What examples, tests and the documentation import from the root;
#: everything else imports from its subpackage.
__all__ = [
    "A100_80GB",
    "AlertEngine",
    "ClusterConfig",
    "ClusterSimulator",
    "DgxServer",
    "DualThresholdPolicy",
    "EvaluationHarness",
    "FaultPlan",
    "NoCapPolicy",
    "POLCA_DEFAULTS",
    "Priority",
    "ProtectionSpec",
    "RooflineLatencyModel",
    "SimulatedGpu",
    "UnmanagedPolicy",
    "evaluate_slos",
    "get_model",
    "select_thresholds",
    "__version__",
]
