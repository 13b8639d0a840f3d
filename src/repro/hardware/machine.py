"""The simulated multicore machine: scheduler, counters, bandwidth domains.

Execution is quantum-interleaved: the scheduler always advances the runnable
thread with the smallest virtual clock by roughly ``quantum_cycles`` cycles,
so all running threads stay within one quantum of each other — fine enough
that cache contention between the Target and the Pirate plays out at a
realistic relative rate, and coarse enough that simulation stays fast.

Each quantum:

1. the thread plans ``(instructions, line addresses)`` from its workload,
2. the addresses run through the shared :class:`~repro.caches.CacheHierarchy`,
3. the core timing model converts the event counts into cycles (consulting
   the DRAM and L3 bandwidth domains),
4. the per-core performance counter bank is updated — experiments *only*
   read the machine through these counters, mirroring the paper's method.

Suspend/resume implements the paper's warm-up gaps (Fig. 5): a suspended
thread retires nothing but its clock jumps forward to the global time on
resume, so suspension costs wall-clock time — this is what the Table III
overhead measurement accounts.
"""

from __future__ import annotations

from typing import Callable

from ..caches.base import CoreMemStats
from ..caches.hierarchy import CacheHierarchy
from ..config import MachineConfig
from ..errors import SimulationError
from .bandwidth import BandwidthDomain
from .core import CoreTimingModel
from .counters import PerfCounters
from .thread import SimThread, WorkloadLike

#: Default scheduling quantum (cycles).  Small enough that Pirate/Target
#: interleave far below a measurement interval, big enough to amortize
#: per-quantum overhead.
DEFAULT_QUANTUM = 20_000.0


class Machine:
    """A configured multicore with threads, counters and bandwidth domains."""

    def __init__(
        self,
        config: MachineConfig,
        seed: int = 0,
        quantum_cycles: float = DEFAULT_QUANTUM,
    ):
        if quantum_cycles <= 0:
            raise SimulationError("quantum must be positive")
        self.config = config
        self.hierarchy = CacheHierarchy(config, seed)
        # latency_alpha calibration: a single saturating co-runner (the
        # Pirate at ~40% L3 utilization) must have "virtually no impact" on
        # the Target (§III-C), while DRAM queueing near saturation should
        # still be felt (Fig. 2's bandwidth-bound regime).
        self.l3_domain = BandwidthDomain(
            "L3", config.l3_bytes_per_cycle, latency_alpha=0.05
        )
        self.dram_domain = BandwidthDomain(
            "DRAM", config.dram_bytes_per_cycle, latency_alpha=0.6
        )
        self.timing = CoreTimingModel(config.core, self.l3_domain, self.dram_domain)
        self.counters = PerfCounters(config.num_cores)
        self.threads: list[SimThread] = []
        self.quantum_cycles = quantum_cycles

    # -- thread management -----------------------------------------------------

    def add_thread(
        self,
        workload: WorkloadLike,
        core: int,
        *,
        instruction_limit: float | None = None,
    ) -> SimThread:
        """Create a thread pinned to ``core`` (cores may host several threads,
        but their shared counter bank then aggregates them)."""
        if not 0 <= core < self.config.num_cores:
            raise SimulationError(
                f"core {core} out of range for {self.config.num_cores}-core machine"
            )
        t = SimThread(len(self.threads), workload, core, instruction_limit=instruction_limit)
        t.clock = self.now
        self.threads.append(t)
        return t

    @property
    def now(self) -> float:
        """Global time: the latest point any thread has reached."""
        return max((t.clock for t in self.threads), default=0.0)

    @property
    def frontier(self) -> float:
        """Scheduling frontier: the earliest runnable thread's clock."""
        runnable = [t.clock for t in self.threads if t.runnable]
        return min(runnable) if runnable else self.now

    def suspend(self, thread: SimThread) -> None:
        """Halt a thread (Fig. 5 warm-up gaps)."""
        thread.suspend()

    def resume(self, thread: SimThread) -> None:
        """Wake a thread at the current global time."""
        thread.resume(self.now)

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        *,
        max_cycles: float | None = None,
        until: Callable[[], bool] | None = None,
        max_quanta: int | None = None,
    ) -> float:
        """Advance the machine.

        Stops when no thread is runnable, when the scheduling frontier has
        advanced by ``max_cycles``, when ``until()`` becomes true (checked
        between quanta), or after ``max_quanta`` quanta.  Returns the number
        of frontier cycles that elapsed.
        """
        start = self.frontier
        quanta = 0
        while True:
            if until is not None and until():
                break
            runnable = [t for t in self.threads if t.runnable]
            if not runnable:
                break
            if max_cycles is not None and self.frontier - start >= max_cycles:
                break
            if max_quanta is not None and quanta >= max_quanta:
                break
            thread = min(runnable, key=lambda t: t.clock)
            self._step(thread)
            quanta += 1
            frontier = self.frontier
            self.l3_domain.maybe_rollover(frontier)
            self.dram_domain.maybe_rollover(frontier)
        return self.frontier - start

    def run_only(
        self,
        threads: list[SimThread] | SimThread,
        *,
        max_cycles: float | None = None,
        until: Callable[[], bool] | None = None,
    ) -> float:
        """Run only ``threads`` (others suspended meanwhile).

        This is the warm-up primitive: the paper halts the Pirate to let the
        Target re-warm its grown cache allocation and vice versa (Fig. 5).
        Returns the elapsed frontier cycles.
        """
        if isinstance(threads, SimThread):
            threads = [threads]
        keep = set(id(t) for t in threads)
        others = [t for t in self.threads if id(t) not in keep and t.runnable]
        for t in others:
            t.suspend()
        try:
            return self.run(max_cycles=max_cycles, until=until)
        finally:
            now = self.now
            for t in others:
                t.resume(now)

    def run_alone(self, thread: SimThread, cycles: float) -> None:
        """Back-compat wrapper for :meth:`run_only` with a cycle budget."""
        self.run_only(thread, max_cycles=cycles)

    def _step(self, thread: SimThread) -> None:
        instr, n_lines = thread.plan_quantum(self.quantum_cycles)
        if instr <= 0.0:
            thread.finished = True
            return
        wl = thread.workload
        if n_lines > 0:
            lines, writes = wl.chunk(n_lines)
            stats = self.hierarchy.access_chunk(
                thread.core, lines, writes, bypass_private=wl.bypass_private
            )
            # line-granularity accounting: each emitted line address stands for
            # `accesses_per_line` architectural accesses; the extras are L1 hits
            extra = n_lines * (wl.accesses_per_line - 1.0)
            mem_accesses = n_lines * wl.accesses_per_line
        else:
            stats = CoreMemStats()
            extra = 0.0
            mem_accesses = 0.0

        cycles, _bd = self.timing.quantum_cycles(
            instr, stats, wl.cpi_base, wl.mlp, thread.thread_id
        )
        thread.retire(instr, cycles)

        bank = self.counters.bank(thread.core)
        bank.cycles += cycles
        bank.instructions += instr
        bank.mem_accesses += mem_accesses
        bank.l1_hits += stats.l1_hits + extra
        bank.l2_hits += stats.l2_hits
        bank.l3_hits += stats.l3_hits
        bank.l3_misses += stats.l3_misses
        bank.l3_fetches += stats.l3_fetches
        bank.prefetch_fills += stats.prefetch_fills
        bank.dram_writeback_lines += stats.dram_writeback_lines
        bank.dram_bytes += (stats.l3_fetches + stats.dram_writeback_lines) * 64.0
        bank.l3_bytes += (stats.l3_hits + stats.l3_misses + stats.prefetch_fills) * 64.0
