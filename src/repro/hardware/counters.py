"""Per-core performance counters.

The paper's method is defined entirely in terms of hardware performance
counter reads: the Target's CPI and bandwidth, and the Pirate's fetch ratio,
are all computed from counter deltas over measurement intervals (§II-A,
§III-A, where the authors patch the kernel to expose ``OFF_CORE_RSP_0`` for
per-core L3 events).  This module provides the same facility for the
simulated machine: cumulative per-core counters, cheap snapshots, and delta
arithmetic, so the pirating harness reads the machine exactly the way the
real tool reads the CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..units import gbps_from_bytes_per_cycle


@dataclass
class CounterSample:
    """One reading (or delta) of a core's counter bank.

    All values are cumulative counts since machine construction when produced
    by :meth:`PerfCounters.sample`, or interval counts when produced by
    :meth:`CounterSample.delta`.
    """

    cycles: float = 0.0
    instructions: float = 0.0
    mem_accesses: float = 0.0
    l1_hits: float = 0.0
    l2_hits: int = 0
    l3_hits: int = 0
    #: demand misses at L3 (the paper's *misses*)
    l3_misses: int = 0
    #: lines brought from memory incl. prefetches (the paper's *fetches*)
    l3_fetches: int = 0
    prefetch_fills: int = 0
    dram_writeback_lines: int = 0
    dram_bytes: float = 0.0
    l3_bytes: float = 0.0

    def delta(self, earlier: "CounterSample") -> "CounterSample":
        """Counter increments since ``earlier``."""
        out = CounterSample()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) - getattr(earlier, f.name))
        return out

    # -- derived metrics (the paper's reported quantities) -------------------

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def fetch_ratio(self) -> float:
        """Fetches per memory access (§I-B)."""
        return self.l3_fetches / self.mem_accesses if self.mem_accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        """Demand misses per memory access (§I-B)."""
        return self.l3_misses / self.mem_accesses if self.mem_accesses else 0.0

    @property
    def fetch_rate(self) -> float:
        """Fetches per cycle — proportional to off-chip read bandwidth."""
        return self.l3_fetches / self.cycles if self.cycles else 0.0

    def bandwidth_gbps(self, clock_hz: float) -> float:
        """Off-chip bandwidth (GB/s) this sample represents."""
        if not self.cycles:
            return 0.0
        return gbps_from_bytes_per_cycle(self.dram_bytes / self.cycles, clock_hz)


class PerfCounters:
    """Counter banks for every core of a machine."""

    def __init__(self, num_cores: int):
        self._banks = [CounterSample() for _ in range(num_cores)]

    def bank(self, core: int) -> CounterSample:
        """Mutable cumulative bank for ``core`` (the machine updates this)."""
        return self._banks[core]

    def sample(self, core: int) -> CounterSample:
        """Snapshot of a core's cumulative counters."""
        b = self._banks[core]
        return CounterSample(**{f.name: getattr(b, f.name) for f in fields(CounterSample)})

    def sample_all(self) -> list[CounterSample]:
        """Snapshot every core."""
        return [self.sample(i) for i in range(len(self._banks))]

    def restore(self, samples: list[CounterSample]) -> None:
        """Set every core's bank to a :meth:`sample_all` reading."""
        self._banks = [replace(s) for s in samples]
