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

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Goal:
    """Where :meth:`Machine.run` stops: every thread in ``threads`` has
    retired its absolute count in ``instructions`` or has finished (a
    finished thread retires nothing more, so it has met its part).
    ``Goal(target, n)`` and ``Goal(threads, counts)`` are the stops the
    harnesses use.

    A count that can never be reached (NaN or infinite) raises
    :class:`~repro.errors.SimulationError` here rather than hanging a run.
    """

    threads: tuple[SimThread, ...]
    instructions: tuple[float, ...]

    def __post_init__(self) -> None:
        threads, counts = self.threads, self.instructions
        threads = (threads,) if isinstance(threads, SimThread) else tuple(threads)
        counts = tuple(map(float, counts if isinstance(counts, (list, tuple)) else (counts,)))
        if not threads or len(counts) != len(threads):
            raise SimulationError(f"a goal needs one instruction count per thread: {counts}")
        if not all(map(math.isfinite, counts)):
            raise SimulationError(f"goal instruction counts must be finite, got {counts}")
        object.__setattr__(self, "threads", threads)
        object.__setattr__(self, "instructions", counts)

    def reached(self) -> bool:
        """Whether every thread has met its part of the goal."""
        # a plain loop: this runs between every two quanta
        for t, n in zip(self.threads, self.instructions):
            if t.instructions < n and not t.finished:
                return False
        return True


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

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> tuple:
        """The whole machine's state as plain data: the memory hierarchy,
        both bandwidth domains, every counter bank and every thread with
        its workload's stream position.

        It pickles, so a machine built the same way in another process can
        :meth:`restore` it.  Every thread's workload must provide
        ``snapshot``/``restore`` (all of :mod:`repro.workloads` and the
        Pirate's threads do).
        """
        return (
            self.hierarchy.snapshot(),
            self.l3_domain.snapshot(),
            self.dram_domain.snapshot(),
            self.counters.sample_all(),
            [t.snapshot() for t in self.threads],
        )

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot` of a machine of the same config with
        the same threads and workloads; the snapshot stays reusable."""
        hierarchy, l3, dram, counters, threads = state
        if len(threads) != len(self.threads):
            raise SimulationError(
                f"snapshot has {len(threads)} threads, the machine {len(self.threads)}"
            )
        self.hierarchy.restore(hierarchy)
        self.l3_domain.restore(l3)
        self.dram_domain.restore(dram)
        self.counters.restore(counters)
        for thread, saved in zip(self.threads, threads):
            thread.restore(saved)

    # -- execution ---------------------------------------------------------------

    def run(self, goal: Goal | None = None) -> float:
        """Advance the machine until ``goal`` is reached or no thread is
        runnable.  The goal is checked between quanta, so a run overshoots
        its counts by up to one quantum.  Returns the elapsed frontier cycles.
        """
        start = self.frontier
        while (goal is None or not goal.reached()) and self.step():
            pass
        return self.frontier - start

    def run_only(self, threads: list[SimThread] | SimThread, goal: Goal | None = None) -> float:
        """Run only ``threads`` until ``goal``; the others are suspended
        meanwhile and resume at the global time when the run ends.

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
            return self.run(goal)
        finally:
            now = self.now
            for t in others:
                t.resume(now)

    def step(self) -> bool:
        """Run one quantum of the runnable thread with the smallest clock.

        Returns False, and runs nothing, when no thread is runnable.
        """
        runnable = [t for t in self.threads if t.runnable]
        if not runnable:
            return False
        self._run_quantum(min(runnable, key=lambda t: t.clock))
        frontier = self.frontier
        self.l3_domain.maybe_rollover(frontier)
        self.dram_domain.maybe_rollover(frontier)
        return True

    def _run_quantum(self, thread: SimThread) -> None:
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
