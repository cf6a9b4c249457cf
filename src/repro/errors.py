"""Exception hierarchy for the ``repro`` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class. Subclasses communicate *which subsystem* rejected the
operation: configuration, capacity, cluster simulation, or trace data.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class ModelNotFoundError(ConfigurationError):
    """A model name was requested that is not in the registry (Table 3)."""


class FrequencyError(ConfigurationError):
    """A GPU clock frequency outside the supported range was requested."""


class PowerCapError(ConfigurationError):
    """A power cap outside the device's configurable range was requested."""

class CapacityError(ReproError):
    """A request exceeded the capacity of a simulated resource."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class TraceError(ReproError):
    """A power/request trace was malformed or failed validation."""
