"""Power control actuation: knobs, per-kind latency, silent failures.

Section 3.2 describes the control landscape: fast in-band frequency
locking and power capping (milliseconds, but unavailable to the provider
under fixed-passthrough virtualization), slow OOB frequency/power capping
(up to 40 s), and the OOB power brake (5 s, drastic). This package names
those knobs (:mod:`repro.control.actions`) and gives the simulator its
one command path (:mod:`repro.control.actuator`): the row's OOB
latencies plus one silent-failure draw per command. The simulation
core's event queue carries each command's landing, verify and re-issue.
:mod:`repro.control.emergency` holds the load-shedding response to
power-delivery incidents. Import from those modules directly.
"""

__all__ = []
