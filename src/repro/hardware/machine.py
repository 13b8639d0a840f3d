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

:meth:`Machine.step` runs one quantum in Python.  :meth:`Machine.run`
runs the same loop in C when the hierarchy runs the C walk (DESIGN §11,
"The quantum loop"): the Pirate's quanta never leave C, and a Target's
quantum returns to Python once, for its workload's lines.

Suspend/resume implements the paper's warm-up gaps (Fig. 5): a suspended
thread retires nothing but its clock jumps forward to the global time on
resume, so suspension costs wall-clock time — this is what the Table III
overhead measurement accounts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from ..caches.base import CoreMemStats
from ..caches.hierarchy import CacheHierarchy
from ..config import MachineConfig
from ..errors import SimulationError
from ..kernels import cext
from .bandwidth import BandwidthDomain
from .core import CoreTimingModel
from .counters import PerfCounters
from .thread import SimThread, WorkloadLike

#: Default scheduling quantum (cycles).  Small enough that Pirate/Target
#: interleave far below a measurement interval, big enough to amortize
#: per-quantum overhead.
DEFAULT_QUANTUM = 20_000.0

_bank_float = attrgetter(*cext.BANK_FLOAT)
_bank_int = attrgetter(*cext.BANK_INT)
_totals = attrgetter(*cext.TOTALS)
_domain_float = attrgetter(*cext.DOMAIN_FLOAT)
#: columns of the loop's thread arrays that the write-back and the
#: post-chunk refresh touch
_CLOCK, _INSTR, _CPI, _CARRY, _RATES = map(
    cext.THREAD_FLOAT.index,
    ("clock", "instructions", "cpi_estimate", "_line_carry", "mem_fraction"),
)
_BYPASS, _COUNT, _POS, _FLAGS = map(
    cext.THREAD_INT.index, ("bypass_private", "stripe_count", "stripe_pos", "flags")
)


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
    """A configured multicore with threads, counters and bandwidth domains.

    When the hierarchy runs the C walk, :meth:`run` runs its quanta in the
    C quantum loop (:class:`~repro.kernels.cext.QuantumLoop`), bit-identical
    to the Python :meth:`step` loop it keeps as the oracle.
    """

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
        self._loop: cext.QuantumLoop | None = None

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
        if not self._run_c(goal):
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

    # -- the C quantum loop --------------------------------------------------------

    def _run_c(self, goal: Goal | None) -> bool:
        """:meth:`run` in the C quantum loop.

        Packs the threads, counter banks, hierarchy totals, bandwidth
        domains and Pirate cursors into the loop's arrays, runs it (making
        a non-Pirate thread's lines with its workload's ``chunk`` whenever
        the loop asks) and writes the state back, also when a chunk fails.
        Returns False, having changed nothing, when the hierarchy runs no
        walk or the state does not pack (a goal thread of another machine,
        a counter of an unexpected type); :meth:`run` then steps in Python.
        """
        loop = self._pack(goal)
        if loop is None:
            return False
        try:
            code = cext.YIELD
            while code in (cext.NEED_LINES, cext.YIELD):
                lines = w8 = None
                if code == cext.NEED_LINES:
                    t, n = loop.pending
                    wl = self.threads[t].workload
                    lines, w8 = cext.chunk_arrays(*wl.chunk(n))
                    # the Python loop reads these after the chunk
                    loop.td[t, _RATES:] = (
                        wl.mem_fraction, wl.accesses_per_line, wl.cpi_base, wl.mlp
                    )
                    loop.ti[t, _BYPASS] = bool(wl.bypass_private)
                code = loop.call(lines, w8)
        finally:
            self._write_back(loop)
        if code == cext.ERR_WRITES:
            raise cext.write_flags_error(len(lines), len(w8))
        if code != cext.DONE:
            raise cext.walk_error(code)
        return True

    def _pack(self, goal: Goal | None) -> cext.QuantumLoop | None:
        if self.hierarchy._walk is None:
            return None
        # imported here: repro.core.pirate imports this module
        from ..core.pirate import PirateThreadWorkload

        threads = self.threads
        domains = (self.l3_domain, self.dram_domain)
        goal_idx = None
        if goal is not None:
            index = {id(t): i for i, t in enumerate(threads)}
            goal_idx = [index.get(id(t)) for t in goal.threads]
            if None in goal_idx:
                return None
        banks = [self.counters.bank(k) for k in range(self.config.num_cores)]
        bank_floats = [_bank_float(b) for b in banks]
        bank_ints = [(*_bank_int(b), 0) for b in banks]
        totals = [(*_totals(t), 0) for t in self.hierarchy.totals]
        dom_floats = [_domain_float(d) for d in domains]
        accs = [[(tid, *v) for tid, v in d._acc.items()] for d in domains]
        entries = [a for acc in accs for a in acc]
        # the loop keeps int columns int64 and float columns double: any
        # other type stays with the Python loop
        if not (
            _types(bank_floats, [f[3:] for f in dom_floats], [a[2:] for a in entries]) <= {float}
            and _types(bank_ints, totals, [a[:2] for a in entries]) <= {int}
            and all(type(d._epoch_index) is int for d in domains)
        ):
            return None
        acc_cap = len(threads) + max(map(len, accs))
        loop = self._loop
        if loop is None or loop.n_threads != len(threads) or loop.acc_cap < acc_cap:
            loop = self._loop = cext.QuantumLoop(
                self.hierarchy._walk, len(threads), self.config.num_cores, 2 * acc_cap
            )
        rates, ints = [], []
        try:
            for t in threads:
                wl = t.workload
                limit = t.instruction_limit
                rates.append((
                    t.clock, t.instructions, 0.0 if limit is None else float(limit),
                    t.cpi_estimate, t._line_carry,
                    wl.mem_fraction, wl.accesses_per_line, wl.cpi_base, wl.mlp,
                ))
                count, pos = wl.snapshot() if type(wl) is PirateThreadWorkload else (0, -1)
                stripe = pos >= 0 and wl.bypass_private and wl.stride >= 1
                ints.append((
                    t.core, t.thread_id, limit is not None, t.finished, t.suspended,
                    bool(wl.bypass_private), stripe,
                    wl.line_at(0) if stripe else 0, wl.stride if stripe else 0,
                    count, pos, 0,
                ))
            if threads:
                loop.td[:] = rates
                loop.ti[:] = ints
            loop.bf[:] = bank_floats
            loop.bi[:] = bank_ints
            loop.tt[:] = totals
            loop.dd[:] = dom_floats
            for d, (dom, acc) in enumerate(zip(domains, accs)):
                loop.di[d] = (dom._epoch_index, len(acc), 0)
                if acc:
                    loop.acc_tid[d, : len(acc)], loop.acc_bytes[d, : len(acc)], \
                        loop.acc_cyc[d, : len(acc)] = zip(*acc)
        except OverflowError:  # an int the loop's int64 columns cannot hold
            return None
        loop.start(
            self.quantum_cycles,
            self.timing.config,
            goal_idx,
            None if goal is None else goal.instructions,
        )
        return loop

    def _write_back(self, loop: cext.QuantumLoop) -> None:
        """Copy what the loop changed back into the Python objects (with
        the types the Python loop gives them)."""
        for t, d, i in zip(self.threads, loop.td.tolist(), loop.ti.tolist()):
            flags = i[_FLAGS]
            if flags & cext.F_PLANNED:
                t._line_carry = d[_CARRY]
            if flags & cext.F_RETIRED:
                t.clock, t.instructions, t.cpi_estimate = d[_CLOCK], d[_INSTR], d[_CPI]
            if flags & cext.F_FINISHED:
                t.finished = True
            if flags & cext.F_SWEPT:
                t.workload.restore((i[_COUNT], i[_POS]))
        for k, (floats, ints) in enumerate(zip(loop.bf.tolist(), loop.bi.tolist())):
            if ints[-1]:
                bank = self.counters.bank(k)
                for name, value in zip(cext.BANK_FLOAT, floats):
                    setattr(bank, name, value)
                for name, value in zip(cext.BANK_INT, ints):
                    setattr(bank, name, value)
        hier = self.hierarchy
        for tot, ints in zip(hier.totals, loop.tt.tolist()):
            if ints[-1]:
                for name, value in zip(cext.TOTALS, ints):
                    setattr(tot, name, value)
        full, l3only = loop.chunks.tolist()
        hier.kernel_chunks["c", "full"] += full
        hier.kernel_chunks["c", "l3only"] += l3only
        for d, dom in enumerate((self.l3_domain, self.dram_domain)):
            epoch, n_acc, changed = loop.di[d].tolist()
            if not changed:
                continue
            dom._epoch_index = epoch
            (dom.stretch, dom.latency_scale, dom.demand_rate,
             dom.total_bytes) = loop.dd[d, 3:].tolist()
            dom._acc = {
                tid: [nbytes, cycles]
                for tid, nbytes, cycles in zip(
                    loop.acc_tid[d, :n_acc].tolist(),
                    loop.acc_bytes[d, :n_acc].tolist(),
                    loop.acc_cyc[d, :n_acc].tolist(),
                )
            }


def _types(*tables) -> set[type]:
    """The exact types of every value in tables of rows (bool is not int)."""
    return {type(v) for table in tables for row in table for v in row}
