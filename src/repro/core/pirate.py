"""The Pirate: the cache-stealing application (§II-B).

The Pirate keeps a working set of configurable size resident in the shared
L3 by sweeping it with a stride of one cache line at the highest possible
rate — "always access the oldest cache-line" (§II-B1).  Because consecutive
lines map to consecutive sets, the Pirate steals the *same number of ways in
every set*, which is what makes the remaining cache behave like a cache of
lower associativity (Fig. 3).

Multithreading (§II-C2): the working set is partitioned into disjoint,
equal slices, one per Pirate thread, each pinned to its own core.  Two
threads double the access rate and therefore the steal capacity, at the cost
of shared-L3 bandwidth (the :mod:`~repro.core.threadprobe` decides whether
that is safe).

Timing calibration: a Pirate thread issues one 64B line-load per iteration
with near-zero compute; on the simulated machine its throughput is bounded
by the per-core L3 port (12.4 B/cycle), giving ≈ 27 GB/s per thread — the
paper reports 56 GB/s for two saturating cores.

The Pirate uses the hierarchy's private-level bypass: its reuse distance
(the whole working set, megabytes) always exceeds the 256KB L2, so every
access would reach the L3 regardless; skipping the private levels is exact
and an order of magnitude faster to simulate.  The bypass also keeps the
prefetcher out of the Pirate's fetch accounting, so its fetch ratio counts
every line it lost from the L3 — the quantity the monitor thresholds.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..hardware.counters import CounterSample
from ..hardware.machine import Goal, Machine
from ..hardware.thread import SimThread
from ..units import LINE_SIZE
from ..workloads.base import PIRATE_BASE

#: Pirate timing parameters (see module docstring).
PIRATE_CPI_BASE = 0.2
PIRATE_MLP = 12.0


class PirateThreadWorkload:
    """One Pirate thread: a cyclic sweep over its stripe of the working set.

    Thread ``i`` of ``n`` owns working-set lines ``i, i+n, i+2n, ...``
    (interleaved striping).  Growing the working set therefore only appends
    lines to each thread's stripe — resident lines keep their addresses —
    which is what makes warm-up after a size change proportional to the
    *growth*, not the whole set.
    """

    def __init__(self, index: int, stride: int, *, write_fraction: float = 0.0):
        self.name = f"pirate.{index}"
        self.index = index
        self.stride = stride
        self.mem_fraction = 1.0
        self.cpi_base = PIRATE_CPI_BASE
        self.mlp = PIRATE_MLP
        self.accesses_per_line = 1.0
        self.bypass_private = True
        self.write_fraction = write_fraction
        self._count = 0  # lines in this thread's stripe
        self._pos = 0

    def set_count(self, count: int) -> None:
        """Resize the stripe to ``count`` lines (sweep position is kept)."""
        self._count = count
        if count > 0:
            self._pos %= count

    def seek(self, k: int) -> None:
        """Move the sweep position to stripe element ``k``."""
        if self._count > 0:
            self._pos = k % self._count

    @property
    def span_lines(self) -> int:
        return self._count

    def line_at(self, k: int) -> int:
        """Absolute line address of stripe element ``k``."""
        return PIRATE_BASE + self.index + k * self.stride

    def chunk(self, n_lines: int) -> tuple[np.ndarray, None]:
        if self._count <= 0:
            # stealing nothing: spin on one line (negligible footprint)
            return np.full(n_lines, PIRATE_BASE + self.index, dtype=np.int64), None
        pos = self._pos
        self._pos = (pos + n_lines) % self._count
        if pos + n_lines <= self._count:
            start = self.line_at(pos)
            stop = start + n_lines * self.stride
            return np.arange(start, stop, self.stride, dtype=np.int64), None
        ks = (pos + np.arange(n_lines, dtype=np.int64)) % self._count
        return ks * self.stride + (PIRATE_BASE + self.index), None

    def reset(self) -> None:
        self._pos = 0

    def snapshot(self) -> tuple[int, int]:
        """Stripe length and sweep position."""
        return self._count, self._pos

    def restore(self, state: tuple[int, int]) -> None:
        self._count, self._pos = state


class Pirate:
    """A set of Pirate threads managed as one cache-stealing unit."""

    def __init__(self, machine: Machine, cores: list[int]):
        if not cores:
            raise ConfigError("the Pirate needs at least one core")
        if len(set(cores)) != len(cores):
            raise ConfigError("pirate cores must be distinct")
        self.machine = machine
        self.cores = list(cores)
        n = len(self.cores)
        self.workloads: list[PirateThreadWorkload] = []
        self.threads: list[SimThread] = []
        for i, core in enumerate(self.cores):
            wl = PirateThreadWorkload(i, stride=n)
            self.workloads.append(wl)
            self.threads.append(machine.add_thread(wl, core))
        self._working_set_bytes = 0
        #: per-thread count of stripe lines already claimed (warmed) into L3
        self._claimed: list[int] = [0] * n
        self.set_working_set(0)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def working_set_bytes(self) -> int:
        return self._working_set_bytes

    @property
    def working_set_lines(self) -> int:
        return self._working_set_bytes // LINE_SIZE

    def set_working_set(self, nbytes: int) -> None:
        """Resize the stolen working set, striping it across threads.

        The union of the stripes is the contiguous line range
        ``[PIRATE_BASE, PIRATE_BASE + lines)`` — consecutive sets, uniform
        way pressure — and growing only appends lines at the top, so
        resident lines stay resident across a resize.
        """
        if nbytes < 0:
            raise ConfigError("working set must be non-negative")
        self._working_set_bytes = int(nbytes)
        total_lines = self.working_set_lines
        n = self.num_threads
        base = total_lines // n
        extra = total_lines % n
        for i, wl in enumerate(self.workloads):
            wl.set_count(base + (1 if i < extra else 0))

    def snapshot(self) -> tuple[int, list[int]]:
        """Working-set size and claimed stripe lines.  The threads' sweep
        positions and counters belong to the machine's snapshot."""
        return self._working_set_bytes, list(self._claimed)

    def restore(self, state: tuple[int, list[int]]) -> None:
        self._working_set_bytes, claimed = state
        self._claimed = list(claimed)

    # -- counter access -----------------------------------------------------------

    def sample(self) -> list[CounterSample]:
        """Snapshot the counter banks of every Pirate core."""
        return [self.machine.counters.sample(c) for c in self.cores]

    def fetch_ratio(self, since: list[CounterSample]) -> float:
        """Aggregate Pirate fetch ratio since a prior :meth:`sample`.

        Fetches summed over all Pirate threads divided by their summed
        accesses — the §II-A monitoring quantity.
        """
        now = self.sample()
        fetches = 0.0
        accesses = 0.0
        for before, after in zip(since, now):
            d = after.delta(before)
            fetches += d.l3_fetches
            accesses += d.mem_accesses
        return fetches / accesses if accesses else 0.0

    # -- warm-up -----------------------------------------------------------------

    def warm(self) -> None:
        """Claim any not-yet-resident working-set lines, running alone.

        Fig. 5's Pirate warm-up gap.  Thanks to stable striping, only the
        *growth* since the last warm needs touching: each thread seeks to
        the first unclaimed stripe element and sweeps exactly the new lines.
        Cost is therefore proportional to the size change, which is what
        keeps the dynamic method's overhead at the paper's few-percent level.
        """
        deltas = []
        for i, wl in enumerate(self.workloads):
            claimed = min(self._claimed[i], wl.span_lines)
            delta = wl.span_lines - claimed
            if delta > 0:
                wl.seek(claimed)
            deltas.append(delta)
            self._claimed[i] = wl.span_lines
        if not any(d > 0 for d in deltas):
            return
        goals = [t.instructions + d for t, d in zip(self.threads, deltas)]
        self.machine.run_only(self.threads, Goal(self.threads, goals))

    def warm_full(self, sweeps: float = 1.5) -> None:
        """Sweep the whole working set ``sweeps`` times, running alone.

        Used on first attach and by tests; :meth:`warm` is the cheap
        incremental variant used between measurement intervals.
        """
        if self.working_set_lines <= 0:
            return
        goals = [
            t.instructions + sweeps * wl.span_lines
            for t, wl in zip(self.threads, self.workloads)
        ]
        self.machine.run_only(self.threads, Goal(self.threads, goals))
        for i, wl in enumerate(self.workloads):
            self._claimed[i] = wl.span_lines
