"""The simulated multicore machine the Cache Pirating technique runs on.

This package substitutes for the paper's Nehalem E5520 testbed: cores with an
interval-style timing model (:mod:`repro.hardware.core`), per-core performance
counter banks equivalent to the perfctr/``OFF_CORE_RSP_0`` setup of §III-A
(:mod:`repro.hardware.counters`), bandwidth-limited DRAM and shared-L3
interfaces (:mod:`repro.hardware.bandwidth`), and a quantum-interleaved
scheduler with pinning and suspend/resume (:mod:`repro.hardware.machine`).
"""

from .bandwidth import BandwidthDomain
from .counters import CounterSample, PerfCounters
from .core import CoreTimingModel, TimingBreakdown
from .thread import SimThread, WorkloadLike
from .machine import Goal, Machine

__all__ = [
    "BandwidthDomain",
    "CounterSample",
    "PerfCounters",
    "CoreTimingModel",
    "TimingBreakdown",
    "SimThread",
    "WorkloadLike",
    "Goal",
    "Machine",
]
