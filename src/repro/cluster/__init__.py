"""Discrete-event simulator for an LLM inference row under power management.

This is the reproduction of the paper's evaluation vehicle (Section 6.4):
"We implement a discrete event simulator to evaluate the degree of
oversubscription that we can support in a production LLM inference
cluster... built for a high-traffic scenario [which] assumes that all the
servers are serving inference with models loaded", with "a one-request
buffer per server to simulate queueing delays".

The simulator advances arrival, phase-transition, telemetry, and actuation
events over a row of simulated BLOOM-176B servers; a pluggable power policy
(POLCA or a baseline) observes the 2-second row telemetry through a
:class:`~repro.telemetry.base.SampledInterface` and issues frequency caps
(40 s OOB latency) or power brakes (5 s) through a
:class:`~repro.control.actuator.Actuator`. A
:class:`~repro.faults.FaultPlan` on the config makes those interfaces
unreliable (dropout, noise, silent/late commands, server churn); the
hardened control loop verifies and re-issues commands and degrades to
safe caps when its telemetry goes dark.
"""

from repro.cluster.events import EventQueue
from repro.cluster.server_sim import ServerSim, ServerPowerModel
from repro.cluster.loadbalancer import LoadBalancer
from repro.cluster.metrics import PriorityMetrics, SimulationResult
from repro.cluster.simulator import ClusterConfig, ClusterSimulator

__all__ = [
    "ClusterConfig",
    "ClusterSimulator",
    "EventQueue",
    "LoadBalancer",
    "PriorityMetrics",
    "ServerPowerModel",
    "ServerSim",
    "SimulationResult",
]
