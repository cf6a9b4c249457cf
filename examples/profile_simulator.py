"""Profile the simulator hot path with ``repro.exec.profile``.

Times one uncached cluster run end to end, breaks it down with cProfile
to show where the time goes (event-queue operations, per-server power
refresh, request routing), then re-runs with the simulator's own
per-event-kind kernel timers (``ClusterSimulator(kernel_timers=True)``)
for the event-loop view: how many ticks/arrivals/phase advances ran and
what each kind costs. The kernel counters also land in
``result.observability["sim_core"]``, so hot-path regressions show up
in exported traces. This is the workflow that motivated the heap-tuple
event queue — run it before and after
touching ``repro.cluster`` to see what a change buys.

Run:  python examples/profile_simulator.py
"""

from repro.exec import (
    PolicySpec,
    RunSpec,
    execute_spec,
    profile_call,
    profile_kernels,
    timed,
)
from repro.cluster.simulator import ClusterConfig
from repro.units import hours


def main() -> None:
    config = ClusterConfig(n_base_servers=40, added_fraction=0.30, seed=1)
    spec = RunSpec(
        config=config, policy=PolicySpec("POLCA"), duration_s=hours(6)
    )

    # Warm the trace cache first so the profile isolates the simulator
    # itself (trace synthesis runs once per process and is cached).
    with timed() as elapsed:
        from repro.exec import requests_for

        requests_for(spec.trace_key())
    print(f"trace synthesis (once per process): {elapsed():.2f} s")

    result, report = profile_call(execute_spec, spec, top=10)
    print(f"\nsimulated {result.duration_s / 3600:.0f} h of cluster time "
          f"in {report.wall_s:.2f} s wall-clock")
    print(f"power brake events: {result.power_brake_events}, "
          f"capping actions: {result.capping_actions}")

    print("\nhottest functions (by self time):")
    for spot in report.top:
        print(f"  {spot.tottime_s:7.3f} s  {spot.calls:>9} calls  "
              f"{spot.function}")

    _, kernels = profile_kernels(spec)
    print("\nevent-loop kernels (per event kind, hottest first):")
    for stat in kernels:
        print(f"  {stat.seconds:7.3f} s  {stat.calls:>9} events  "
              f"{stat.mean_us:8.1f} us/event  {stat.kind}")


if __name__ == "__main__":
    main()
