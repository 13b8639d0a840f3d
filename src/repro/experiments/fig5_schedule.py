"""Figure 5: the dynamic working-set adjustment schedule.

The paper's figure is a timeline: measurement intervals at successive cache
sizes separated by warm-up gaps in which only the grower runs.  This module
runs a short dynamic measurement and reconstructs that timeline from the
interval records, reporting the fraction of wall time spent measuring vs
warming — the quantity behind Table III's overhead column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import measure_curve_dynamic
from ..rng import stable_seed
from ..units import MB
from ..workloads import benchmark_target
from .scale import QUICK, Scale


@dataclass
class ScheduleEntry:
    target_cache_mb: float
    start_cycle: float
    wall_cycles: float
    pirate_fetch_ratio: float
    #: unmeasured wall time between the previous interval and this one
    gap_cycles: float


@dataclass
class Fig5Result:
    benchmark: str
    entries: list[ScheduleEntry] = field(default_factory=list)
    total_wall_cycles: float = 0.0

    @property
    def measured_cycles(self) -> float:
        return sum(e.wall_cycles for e in self.entries)

    @property
    def gap_fraction(self) -> float:
        """Wall-time share of warm-ups/settling (the schedule's gaps)."""
        if self.total_wall_cycles <= 0:
            return 0.0
        return 1.0 - self.measured_cycles / self.total_wall_cycles

    def format(self) -> str:
        out = [f"Figure 5 — dynamic adjustment schedule ({self.benchmark})"]
        out.append(f"{'t_start(Mcyc)':>13} {'size MB':>8} {'interval(Mcyc)':>15} {'gap(Mcyc)':>10}")
        for e in self.entries:
            out.append(
                f"{e.start_cycle / 1e6:13.2f} {e.target_cache_mb:8.1f} "
                f"{e.wall_cycles / 1e6:15.2f} {e.gap_cycles / 1e6:10.2f}"
            )
        out.append(
            f"measurement covers {(1 - self.gap_fraction) * 100:.1f}% of wall time; "
            f"gaps (warm-up + settle) {self.gap_fraction * 100:.1f}%"
        )
        return "\n".join(out)


def run(scale: Scale = QUICK, seed: int = 0, benchmark: str = "omnetpp") -> Fig5Result:
    """Run one short dynamic measurement and expose its timeline."""
    res = measure_curve_dynamic(
        benchmark_target(benchmark, seed=stable_seed(seed, benchmark)),
        list(scale.sizes_mb),
        total_instructions=scale.dynamic_total_instructions,
        interval_instructions=scale.interval_instructions,
        benchmark=benchmark,
        compute_baseline=False,
        seed=stable_seed(seed, "fig5"),
    )
    entries = []
    prev_end = res.samples[0].start_cycle if res.samples else 0.0
    first_start = prev_end
    for s in res.samples:
        entries.append(
            ScheduleEntry(
                target_cache_mb=s.target_cache_bytes / MB,
                start_cycle=s.start_cycle - first_start,
                wall_cycles=s.wall_cycles,
                pirate_fetch_ratio=s.pirate_fetch_ratio,
                gap_cycles=max(s.start_cycle - prev_end, 0.0),
            )
        )
        prev_end = s.start_cycle + s.wall_cycles
    return Fig5Result(
        benchmark=benchmark,
        entries=entries,
        total_wall_cycles=res.wall_cycles,
    )
