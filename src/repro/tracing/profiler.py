"""The Gprof stand-in: a flat profile for placing trace markers.

§III-B1: "we analyze the time profiles of the applications using Gprof and
identify the code responsible for the largest fraction of the applications'
execution times.  We then configure our simulator to start tracing when the
applications enter their hot code segments."

A simulated workload's analogue of "code regions" is its phase/region
structure: for a :class:`~repro.workloads.phased.PhasedWorkload` the phases
are the profile units; for a plain workload there is a single unit covering
the whole run.  The profiler runs the workload on a machine for a sampling
budget and attributes cycles to units, then reports the hot unit and the
instruction markers that bracket its first occurrence — exactly what the
tracer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import MachineConfig, nehalem_config
from ..errors import TraceError
from ..hardware.machine import Machine
from ..workloads.phased import PhasedWorkload


@dataclass
class ProfileEntry:
    """One profile unit (phase) with its measured share of execution time."""

    name: str
    cycles: float
    instructions: float
    #: instruction markers bracketing the unit's first occurrence
    start_marker: float
    stop_marker: float

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class FlatProfile:
    """A Gprof-style flat profile of a workload."""

    benchmark: str
    entries: list[ProfileEntry] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(e.cycles for e in self.entries)

    def hottest(self) -> ProfileEntry:
        """The unit with the largest share of execution time."""
        if not self.entries:
            raise TraceError(f"{self.benchmark}: empty profile")
        return max(self.entries, key=lambda e: e.cycles)

    def fraction(self, name: str) -> float:
        """Share of total cycles attributed to ``name``."""
        total = self.total_cycles
        for e in self.entries:
            if e.name == name:
                return e.cycles / total if total else 0.0
        raise TraceError(f"{self.benchmark}: no profile unit {name!r}")


def profile_workload(
    workload_factory,
    sample_instructions: float,
    *,
    config: MachineConfig | None = None,
    seed: int = 0,
) -> FlatProfile:
    """Profile a workload for ``sample_instructions`` on a solo machine.

    For phased workloads, cycles are attributed per phase by sampling the
    phase index at quantum granularity; plain workloads yield a single
    entry.  Returns markers usable with the tracer and the attach API.
    """
    config = config or nehalem_config(num_cores=1)
    machine = Machine(config, seed=seed)
    if callable(workload_factory):
        workload = workload_factory()
    else:
        workload = workload_factory
        workload.reset()
    thread = machine.add_thread(workload, core=0, instruction_limit=sample_instructions)

    if not isinstance(workload, PhasedWorkload):
        machine.run()
        s = machine.counters.sample(0)
        return FlatProfile(
            benchmark=workload.name,
            entries=[
                ProfileEntry(
                    name=workload.name,
                    cycles=s.cycles,
                    instructions=s.instructions,
                    start_marker=0.0,
                    stop_marker=s.instructions,
                )
            ],
        )

    n_phases = len(workload.phases)
    cycles = [0.0] * n_phases
    instructions = [0.0] * n_phases
    first_start = [None] * n_phases
    first_stop = [None] * n_phases
    while not thread.finished:
        phase = workload.current_phase
        c0 = machine.counters.sample(0)
        i0 = thread.instructions
        machine.step()
        d = machine.counters.sample(0).delta(c0)
        cycles[phase] += d.cycles
        instructions[phase] += d.instructions
        if first_start[phase] is None:
            first_start[phase] = i0
        if workload.current_phase == phase:
            first_stop[phase] = thread.instructions
        elif first_stop[phase] is None:
            first_stop[phase] = thread.instructions

    entries = []
    for i, (sub, _) in enumerate(workload.phases):
        if instructions[i] <= 0:
            continue
        entries.append(
            ProfileEntry(
                name=sub.name,
                cycles=cycles[i],
                instructions=instructions[i],
                start_marker=float(first_start[i] or 0.0),
                stop_marker=float(first_stop[i] or 0.0),
            )
        )
    return FlatProfile(benchmark=workload.name, entries=entries)
