"""Table III: execution-time overhead and CPI error vs interval size.

For each measurement-interval size (the paper's 10M/100M/1B instructions;
scaled per DESIGN.md §6), run the dynamic method once per benchmark and
compare its per-size CPI against a fixed-size reference sweep of the same
benchmark.  Reports average/max overhead and average/max relative CPI
error, with and without 403.gcc — whose short phases are the reason the
largest interval degrades (the paper's 23% error cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.report import format_table3
from ..core import measure_curve_dynamic, measure_curve_fixed
from ..core.curves import PerformanceCurve
from ..core.dynamic import run_target_alone
from ..rng import stable_seed
from ..workloads import benchmark_target
from .scale import QUICK, Scale


@dataclass
class BenchmarkOverhead:
    benchmark: str
    interval_label: str
    overhead: float
    #: mean/max relative CPI error vs the fixed-size reference
    avg_error: float
    max_error: float


@dataclass
class Table3Result:
    entries: list[BenchmarkOverhead] = field(default_factory=list)
    interval_labels: tuple[str, ...] = ()

    def rows(self) -> list[dict]:
        out = []
        for label in self.interval_labels:
            group = [e for e in self.entries if e.interval_label == label]
            nogcc = [e for e in group if e.benchmark != "gcc"]
            out.append(
                {
                    "interval_label": label,
                    "avg_overhead": float(np.mean([e.overhead for e in group])),
                    "max_overhead": float(np.max([e.overhead for e in group])),
                    "avg_error": float(np.mean([e.avg_error for e in group])),
                    "max_error": float(np.max([e.max_error for e in group])),
                    "avg_error_nogcc": float(np.mean([e.avg_error for e in nogcc]))
                    if nogcc else 0.0,
                    "max_error_nogcc": float(np.max([e.max_error for e in nogcc]))
                    if nogcc else 0.0,
                }
            )
        return out

    def format(self) -> str:
        out = ["Table III — overhead and relative CPI error vs interval size"]
        out.append(format_table3(self.rows()))
        gcc = [e for e in self.entries if e.benchmark == "gcc"]
        if gcc:
            out.append("403.gcc per-interval error (the phase-capture effect):")
            for e in sorted(gcc, key=lambda e: e.interval_label):
                out.append(
                    f"  {e.interval_label:>5}: avg {e.avg_error * 100:.1f}%  "
                    f"max {e.max_error * 100:.1f}%  overhead {e.overhead * 100:.1f}%"
                )
        return "\n".join(out)

    def gcc_error(self, label: str) -> float:
        for e in self.entries:
            if e.benchmark == "gcc" and e.interval_label == label:
                return e.avg_error
        raise KeyError(label)


def _cpi_errors(dynamic: PerformanceCurve, fixed: PerformanceCurve) -> tuple[float, float]:
    errs = []
    for p in dynamic.points:
        ref = fixed.cpi_at(p.cache_mb)
        if ref > 0:
            errs.append(abs(p.cpi - ref) / ref)
    if not errs:
        return 0.0, 0.0
    return float(np.mean(errs)), float(np.max(errs))


def run(scale: Scale = QUICK, seed: int = 0) -> Table3Result:
    """Sweep interval sizes; compare dynamic vs fixed per benchmark."""
    result = Table3Result(interval_labels=tuple(l for l, _ in scale.table3_intervals))
    # Table III needs size-coverage, not size-resolution: a half-density
    # grid keeps the largest interval's measurement cycle affordable
    sizes = list(scale.sizes_mb[::2]) if len(scale.sizes_mb) > 8 else list(scale.sizes_mb)
    for name in scale.overhead_benchmarks:
        factory = benchmark_target(name, seed=stable_seed(seed, name))
        fixed = measure_curve_fixed(
            factory,
            sizes,
            benchmark=name,
            interval_instructions=scale.fixed_interval_instructions,
            n_intervals=2,
            seed=stable_seed(seed, name, "fixed"),
        )
        # solo baseline measured once per benchmark: its steady-state cycle
        # rate prices every dynamic run's instruction count.  The budget
        # matches a dynamic run's so phased benchmarks (gcc) sample a
        # comparable phase mix.
        baseline_instr = scale.dynamic_total_instructions
        baseline_rate = (
            run_target_alone(
                factory, baseline_instr, seed=stable_seed(seed, name, "base")
            )
            / baseline_instr
        )
        for label, interval in scale.table3_intervals:
            total = max(
                scale.dynamic_total_instructions,
                2.2 * interval * len(sizes),
            )
            dyn = measure_curve_dynamic(
                factory,
                sizes,
                total_instructions=total,
                interval_instructions=interval,
                benchmark=name,
                compute_baseline=False,
                seed=stable_seed(seed, name, "dyn", label),
            )
            overhead = dyn.wall_cycles / (dyn.instructions * baseline_rate) - 1.0
            avg_err, max_err = _cpi_errors(dyn.curve, fixed)
            result.entries.append(
                BenchmarkOverhead(
                    benchmark=name,
                    interval_label=label,
                    overhead=overhead,
                    avg_error=avg_err,
                    max_error=max_err,
                )
            )
    return Table3Result(entries=result.entries, interval_labels=result.interval_labels)
