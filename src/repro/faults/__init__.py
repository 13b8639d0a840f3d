"""Process-level chaos for the sweep executor and the curve service.

The simulated machine is never perturbed: the only reason the method
distrusts an interval is a hot Pirate (§III-B2), which real runs produce on
their own.  What this package perturbs is the execution layer around the
simulation — :mod:`repro.faults.chaos` schedules seedable worker kills,
point hangs, injected errors and cache corruption, driving the supervision
proofs in ``tests/test_chaos.py`` and the service's ``tests/test_service_chaos.py``.
"""

from .chaos import (
    CHAOS_ENV,
    CHAOS_KILL_EXIT,
    CORRUPTION_MODES,
    SERVICE_CHAOS_ENV,
    ChaosError,
    ChaosPlan,
    ServiceChaosPlan,
    apply_chaos,
    chaos_from_env,
    corrupt_cache_entries,
    service_chaos_from_env,
)

__all__ = [
    "CHAOS_ENV",
    "SERVICE_CHAOS_ENV",
    "CHAOS_KILL_EXIT",
    "CORRUPTION_MODES",
    "ChaosError",
    "ChaosPlan",
    "ServiceChaosPlan",
    "apply_chaos",
    "service_chaos_from_env",
    "chaos_from_env",
    "corrupt_cache_entries",
]
