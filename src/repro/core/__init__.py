"""POLCA: power oversubscription for LLM inference clusters (Section 6).

The paper's primary artifact: a dual-threshold, priority-aware frequency
capping policy operating on 2-second row telemetry with a power-brake
safety net, able to host ~30% more servers in an existing inference row
with zero brakes and SLO-compliant latency.

This package provides the POLCA policy (Table 5), the comparison baselines
(Section 6.6), threshold selection from historical traces, SLO evaluation
(Table 6), and the sweep drivers behind Figures 13-18.
"""

from repro.core.policy import POLCA_DEFAULTS, DualThresholdPolicy, PolcaThresholds
from repro.core.baselines import (
    NoCapPolicy,
    SingleThresholdAllPolicy,
    SingleThresholdLowPriPolicy,
    UnmanagedPolicy,
    all_policies,
)
from repro.core.thresholds import ThresholdRecommendation, select_thresholds
from repro.core.splitting import (
    SplitDeployment,
    plan_split_deployment,
    plan_unsplit_deployment,
    split_power_saving,
)
from repro.core.workload_aware import (
    WorkloadCapPlan,
    deepest_safe_cap,
    uniform_vs_aware_reclaim,
    workload_aware_plan,
)
from repro.core.phase_aware import (
    PhaseAwareOutcome,
    compare_with_full_lock,
    phase_aware_outcome,
)
from repro.core.slo import SloReport, evaluate_slos
from repro.core.sweeps import (
    EvaluationHarness,
    PolicyComparison,
    SweepPoint,
    added_servers_sweep,
    compare_policies,
    threshold_search,
)

__all__ = [
    "DualThresholdPolicy",
    "EvaluationHarness",
    "NoCapPolicy",
    "POLCA_DEFAULTS",
    "PhaseAwareOutcome",
    "PolcaThresholds",
    "PolicyComparison",
    "SingleThresholdAllPolicy",
    "SingleThresholdLowPriPolicy",
    "SloReport",
    "SplitDeployment",
    "SweepPoint",
    "ThresholdRecommendation",
    "UnmanagedPolicy",
    "WorkloadCapPlan",
    "added_servers_sweep",
    "all_policies",
    "compare_policies",
    "compare_with_full_lock",
    "deepest_safe_cap",
    "evaluate_slos",
    "phase_aware_outcome",
    "plan_split_deployment",
    "plan_unsplit_deployment",
    "select_thresholds",
    "split_power_saving",
    "threshold_search",
    "uniform_vs_aware_reclaim",
    "workload_aware_plan",
]
