"""Experiment scales.

``FULL`` aims at the paper's grids (16 cache sizes from 0.5MB to 8MB in
0.5MB steps, the full traceable benchmark set, 1:100-scaled instruction
budgets per DESIGN.md §6); ``QUICK`` shrinks grids and budgets so the whole
benchmark harness runs in minutes — same code paths, coarser statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _grid(step: float, lo: float = 0.5, hi: float = 8.0) -> tuple[float, ...]:
    sizes = []
    s = lo
    while s <= hi + 1e-9:
        sizes.append(round(s, 3))
        s += step
    return tuple(sizes)


@dataclass(frozen=True)
class Scale:
    """Knobs shared by all experiment modules."""

    name: str
    #: Target-available cache-size grid (MB)
    sizes_mb: tuple[float, ...]
    #: measurement interval (Target instructions; paper's 100M ≙ 1M here)
    interval_instructions: float
    #: Target instructions per dynamic-pirating execution
    dynamic_total_instructions: float
    #: address-trace length (lines) for the reference simulator
    trace_lines: int
    #: instruction budget per throughput-scaling run (Figs. 1-2)
    throughput_instructions: float
    #: benchmarks for the Fig. 6/7 reference comparison (Cigar is added by
    #: :attr:`validation_benchmarks`)
    reference_benchmarks: tuple[str, ...]
    #: benchmarks for the Fig. 8 curve gallery
    curve_benchmarks: tuple[str, ...]
    #: benchmarks for Table II steal measurements
    steal_benchmarks: tuple[str, ...]
    #: benchmarks for Table III overhead/error measurements
    overhead_benchmarks: tuple[str, ...]
    #: interval sizes for Table III with their paper labels
    table3_intervals: tuple[tuple[str, float], ...]
    #: instructions per fixed-size measurement interval in sweeps
    fixed_interval_instructions: float = field(default=0.0)
    #: default process fan-out for the experiments' independent sweeps
    #: (0 = serial; ``runall --workers`` overrides).  Results are identical
    #: for any value — parallelism only changes wall-clock time.
    max_workers: int = field(default=0)

    def __post_init__(self) -> None:
        if not self.fixed_interval_instructions:
            object.__setattr__(
                self, "fixed_interval_instructions", self.interval_instructions
            )

    @property
    def validation_benchmarks(self) -> tuple[str, ...]:
        """The §III-B suite: the reference benchmarks plus Cigar (§III-A)."""
        names = self.reference_benchmarks
        return names if "cigar" in names else (*names, "cigar")


QUICK = Scale(
    name="quick",
    sizes_mb=_grid(1.5, lo=0.5, hi=8.0),  # 0.5, 2.0, 3.5, 5.0, 6.5, 8.0
    interval_instructions=250_000,
    dynamic_total_instructions=6_000_000,
    trace_lines=200_000,
    throughput_instructions=500_000,
    reference_benchmarks=("povray", "gromacs", "omnetpp", "gcc"),
    curve_benchmarks=("mcf", "lbm", "gromacs", "sphinx3"),
    steal_benchmarks=("mcf", "libquantum"),
    overhead_benchmarks=("gcc", "gromacs"),
    table3_intervals=(("10M", 80_000.0), ("100M", 250_000.0), ("1B", 800_000.0)),
)

FULL = Scale(
    name="full",
    sizes_mb=_grid(0.5),  # 0.5 .. 8.0 in 0.5MB steps (16 sizes)
    interval_instructions=1_000_000,
    dynamic_total_instructions=40_000_000,
    trace_lines=500_000,
    throughput_instructions=2_000_000,
    # the paper's Fig. 6 likewise presents 12 benchmarks (smallest, median
    # and largest errors of the 20 simulated); cigar is added by
    # validation_benchmarks
    reference_benchmarks=(
        "povray", "calculix", "gromacs", "h264ref", "perlbench", "hmmer",
        "astar", "bzip2", "omnetpp", "sphinx3", "mcf", "gcc",
    ),
    curve_benchmarks=(
        "mcf", "lbm", "libquantum", "omnetpp", "gromacs", "sphinx3",
        "bzip2", "calculix", "povray", "h264ref", "milc", "soplex",
    ),
    steal_benchmarks=(
        "mcf", "milc", "soplex", "libquantum", "omnetpp", "lbm",
        "gromacs", "povray", "sphinx3", "bzip2", "hmmer", "sjeng",
    ),
    overhead_benchmarks=("gcc", "omnetpp", "gromacs", "povray", "sphinx3"),
    # the smallest interval stays above this scale's per-interval transient
    # floor (~0.5M instructions) so the gcc phase effect, not measurement
    # noise, dominates the error column — see DESIGN.md §6
    table3_intervals=(("10M", 500_000.0), ("100M", 1_000_000.0), ("1B", 5_000_000.0)),
    # the FULL gallery is the wall-clock bottleneck of a paper replay; its
    # sweeps are independent, so default to a modest pool
    max_workers=4,
)
