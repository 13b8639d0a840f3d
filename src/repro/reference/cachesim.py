"""Trace replay through the modelled cache hierarchy.

Deliberately reuses :class:`~repro.caches.CacheHierarchy` — the paper's
reference simulator "models the Nehalem cache hierarchy to the best of our
knowledge" (Table I), and this library's knowledge *is* that class.  The
experiments compare Pirate-measured curves (cache shrunk by way competition
at runtime) against these trace-driven curves (cache shrunk by
configuration), which is precisely the paper's §III-B validation.

Prefetching defaults to *off*: the authors disabled the hardware
prefetchers they could for this comparison and calibrated away the rest
(§III-B1); :mod:`repro.reference.calibrate` provides the offset step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..caches.hierarchy import CacheHierarchy
from ..config import MachineConfig, nehalem_config
from ..errors import TraceError
from ..tracing.trace import AddressTrace

#: replay chunk size (accesses)
_CHUNK = 65_536


@dataclass
class ReferencePoint:
    """Simulated steady-state ratios for one cache configuration."""

    benchmark: str
    cache_bytes: int
    ways: int
    fetch_ratio: float
    miss_ratio: float
    fetches: int
    misses: int
    accesses: float
    policy: str


def single_core_config(
    base: MachineConfig | None = None,
    *,
    l3_ways: int | None = None,
    l3_size: int | None = None,
    policy: str | None = None,
    prefetch: bool = False,
) -> MachineConfig:
    """Derive a single-core hierarchy config for trace replay.

    ``l3_ways`` shrinks the L3 by way reduction (same sets — the Pirate-
    equivalent geometry); ``l3_size`` shrinks it at constant associativity
    (footnote 3's ablation).  ``policy`` selects "nru" (Nehalem) or "lru".
    """
    base = base or nehalem_config()
    l3 = base.l3
    if policy is not None:
        l3 = replace(l3, policy=policy)
    if l3_ways is not None and l3_size is not None:
        raise TraceError("choose way reduction or size reduction, not both")
    if l3_ways is not None:
        l3 = l3.with_ways(l3_ways)
    if l3_size is not None:
        l3 = l3.with_size_same_assoc(l3_size)
    return replace(base, num_cores=1, l3=l3, prefetch_enabled=prefetch)


def simulate_trace(
    trace: AddressTrace,
    config: MachineConfig,
    *,
    warmup_fraction: float = 0.25,
    seed: int = 0,
) -> ReferencePoint:
    """Replay a trace through the hierarchy; count the post-warm-up window.

    The first ``warmup_fraction`` of the trace populates the caches without
    being counted, reducing (not eliminating — see the calibration module)
    cold-start bias in short traces.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise TraceError("warmup_fraction must be in [0, 1)")
    hierarchy = CacheHierarchy(config, seed=seed)
    n = len(trace)
    split = int(n * warmup_fraction)

    def replay(lo: int, hi: int) -> None:
        for start in range(lo, hi, _CHUNK):
            stop = min(start + _CHUNK, hi)
            writes = None if trace.writes is None else trace.writes[start:stop]
            hierarchy.access_chunk(0, trace.lines[start:stop], writes)

    replay(0, split)
    before_fetches = hierarchy.totals[0].l3_fetches
    before_misses = hierarchy.totals[0].l3_misses
    replay(split, n)
    totals = hierarchy.totals[0]
    fetches = totals.l3_fetches - before_fetches
    misses = totals.l3_misses - before_misses
    counted_lines = n - split
    accesses = counted_lines * trace.accesses_per_line
    return ReferencePoint(
        benchmark=trace.benchmark,
        cache_bytes=config.l3.size,
        ways=config.l3.ways,
        fetch_ratio=fetches / accesses if accesses else 0.0,
        miss_ratio=misses / accesses if accesses else 0.0,
        fetches=fetches,
        misses=misses,
        accesses=accesses,
        policy=config.l3.policy,
    )
