"""Exception types raised by the repro library.

Keeping these in one module lets callers catch the library's failures without
importing the internals that raise them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A machine/cache/workload configuration is internally inconsistent."""


class SimulationError(ReproError):
    """The simulated machine reached an impossible state (a library bug)."""


class MeasurementError(ReproError):
    """A pirating measurement could not produce trustworthy data.

    Raised e.g. when the Pirate's fetch ratio never drops below the threshold
    during warm-up, so no cache size can be attributed to the Target.
    """


class TraceError(ReproError):
    """Trace capture or replay failed (bad markers, empty trace, ...)."""
