"""Process-level chaos for the sweep executor and the curve service.

The simulated machine is never perturbed: the only reason the method
distrusts an interval is a hot Pirate (§III-B2), which real runs produce on
their own.  What this package perturbs is the execution layer around the
simulation — :mod:`repro.faults.chaos` schedules seedable worker kills,
point hangs, injected errors and cache corruption.  A plan reaches a sweep
one way only, through :data:`CHAOS_ENV` (a :class:`ChaosPlan` context or
the environment), whether the batch executor or a curve-service job runs
it; that drives the supervision proofs in ``tests/test_chaos.py`` and the
service's ``tests/test_service_chaos.py``.
"""

from .chaos import (
    CHAOS_ENV,
    CHAOS_KILL_EXIT,
    CORRUPTION_MODES,
    ChaosError,
    ChaosPlan,
    apply_chaos,
    chaos_from_env,
    corrupt_cache_entries,
)

__all__ = [
    "CHAOS_ENV",
    "CHAOS_KILL_EXIT",
    "CORRUPTION_MODES",
    "ChaosError",
    "ChaosPlan",
    "apply_chaos",
    "chaos_from_env",
    "corrupt_cache_entries",
]
