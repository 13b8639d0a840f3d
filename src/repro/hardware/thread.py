"""Simulated hardware threads.

A :class:`SimThread` binds a workload to a core, tracks its virtual clock and
retired-instruction count, and converts scheduler quanta into memory-access
chunks.  Threads can be suspended and resumed — the Fig. 5 dynamic-adjustment
schedule halts the Target while the Pirate warms its grown working set and
vice versa — and pinned threads never migrate (§III-A pins the Target and the
Pirate to disjoint cores).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class WorkloadLike(Protocol):
    """What the machine needs from a workload.

    Implementations live in :mod:`repro.workloads`; the Pirate in
    :mod:`repro.core.pirate` implements the same protocol.  Those also
    provide ``snapshot()``/``restore(state)`` of their stream position,
    which only :meth:`~repro.hardware.machine.Machine.snapshot` needs.
    """

    #: human-readable identifier (benchmark name)
    name: str
    #: memory accesses per instruction
    mem_fraction: float
    #: cycles per instruction spent outside the modelled miss stalls
    cpi_base: float
    #: memory-level parallelism divisor for miss stalls
    mlp: float
    #: architectural accesses represented by each emitted line address
    #: (sequential word-granularity code touches a 64B line several times;
    #: only the line-granularity stream is simulated, see workloads.base)
    accesses_per_line: float
    #: route accesses straight to the L3 (Pirate-only fast path; exact when
    #: the reuse distance exceeds private-cache capacity)
    bypass_private: bool

    def chunk(self, n_lines: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Produce the next ``n_lines`` line addresses (and optional writes)."""
        ...


class SimThread:
    """One software thread pinned to one core of the simulated machine."""

    def __init__(
        self,
        thread_id: int,
        workload: WorkloadLike,
        core: int,
        *,
        instruction_limit: float | None = None,
    ):
        self.thread_id = thread_id
        self.workload = workload
        self.core = core
        #: virtual time (cycles); the scheduler keeps runnable threads loosely
        #: synchronized by always advancing the laggard
        self.clock = 0.0
        #: retired instructions
        self.instructions = 0.0
        #: stop once this many instructions retire (None = run forever)
        self.instruction_limit = instruction_limit
        self.finished = False
        self.suspended = False
        #: observed CPI of the last quantum (used to size the next quantum)
        self.cpi_estimate = max(workload.cpi_base, 0.1)
        #: fractional line-address carry between quanta
        self._line_carry = 0.0

    @property
    def runnable(self) -> bool:
        return not self.finished and not self.suspended

    def plan_quantum(self, quantum_cycles: float) -> tuple[float, int]:
        """Plan a quantum of roughly ``quantum_cycles``.

        Returns ``(instructions, n_lines)``: instructions ≈ cycles /
        cpi_estimate (clamped to the remaining instruction budget); line
        addresses = instructions * mem_fraction / accesses_per_line, with a
        fractional carry so long-run averages are exact.
        """
        wl = self.workload
        instr = quantum_cycles / self.cpi_estimate
        if self.instruction_limit is not None:
            instr = min(instr, self.instruction_limit - self.instructions)
        if instr <= 0.0:
            return 0.0, 0
        lines = instr * wl.mem_fraction / wl.accesses_per_line + self._line_carry
        n = int(lines)
        self._line_carry = lines - n
        return instr, max(n, 0)

    def retire(self, instructions: float, cycles: float) -> None:
        """Account a completed quantum."""
        self.instructions += instructions
        self.clock += cycles
        if instructions > 0:
            self.cpi_estimate = cycles / instructions
        if (
            self.instruction_limit is not None
            and self.instructions >= self.instruction_limit - 0.5
        ):
            self.finished = True

    _STATE = (
        "clock", "instructions", "instruction_limit", "finished",
        "suspended", "cpi_estimate", "_line_carry",
    )

    def snapshot(self) -> tuple:
        """Clock, retired instructions, limit, run state, CPI estimate, line
        carry and the workload's stream position."""
        return [getattr(self, a) for a in self._STATE], self.workload.snapshot()

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot` (the workload must be built the same
        way as the snapshotted thread's)."""
        values, workload = state
        for attr, value in zip(self._STATE, values):
            setattr(self, attr, value)
        self.workload.restore(workload)

    def suspend(self) -> None:
        self.suspended = True

    def resume(self, now: float) -> None:
        """Wake the thread; its clock jumps to the current global time so the
        suspension consumed wall time without retiring instructions."""
        self.suspended = False
        if now > self.clock:
            self.clock = now
