"""Table II + §III-C: how much cache can the Pirate steal?

For each benchmark and Pirate thread count, finds the largest stolen size
whose measurement the fetch-ratio monitor still trusts (Pirate fetch ratio
≤ 3%), and runs the paper's thread probe (Target slowdown of a second
Pirate thread at a 0.5MB steal).  The summary reproduces §III-C's
statistics: average MB stolen with one thread, with two, and under the <1%
slowdown rule.

Paper anchors: single-threaded average 6.6MB; two threads 6.9MB; 1% rule
6.7MB; relaxed 6.8MB; libquantum capped at 5MB even with two threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.report import format_table2
from ..config import nehalem_config
from ..core import choose_pirate_threads, measure_fixed_size
from ..rng import stable_seed
from ..units import MB
from ..workloads import benchmark_target
from .scale import QUICK, Scale

#: Table II's benchmark set (the hardest to steal from).
HARDEST = ("mcf", "milc", "soplex", "libquantum")


def max_stealable_mb(
    name: str,
    num_threads: int,
    scale: Scale,
    *,
    threshold: float = 0.03,
    seed: int = 0,
    grid_mb: float = 0.5,
) -> float:
    """Largest stolen size (on a 0.5MB grid) the monitor validates.

    Binary search over the grid: validity is monotone in practice (more
    stolen -> higher Pirate fetch ratio), and each probe is one fixed-size
    co-run measurement.
    """
    config = nehalem_config()
    factory = benchmark_target(name, seed=stable_seed(seed, name))
    steps = int((config.l3.size / MB - grid_mb) / grid_mb)  # up to 7.5MB

    def valid(step: int) -> bool:
        stolen = int(step * grid_mb * MB)
        if stolen == 0:
            return True
        res = measure_fixed_size(
            factory,
            stolen,
            config=config,
            num_pirate_threads=num_threads,
            interval_instructions=scale.fixed_interval_instructions,
            n_intervals=1,
            warmup_instructions=scale.fixed_interval_instructions / 2,
            threshold=threshold,
            seed=stable_seed(seed, name, "steal", num_threads, step),
        )
        return res.all_valid

    lo, hi = 0, steps  # lo always valid, hi unknown
    if valid(hi):
        return hi * grid_mb
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if valid(mid):
            lo = mid
        else:
            hi = mid
    return lo * grid_mb


@dataclass
class StealRow:
    benchmark: str
    stolen_1t_mb: float
    stolen_2t_mb: float
    slowdown: float


@dataclass
class Table2Result:
    rows: list[StealRow] = field(default_factory=list)
    slowdown_threshold: float = 0.01

    def format(self) -> str:
        out = ["Table II — capacity stolen vs Target slowdown"]
        out.append(
            format_table2(
                [
                    {
                        "benchmark": r.benchmark,
                        "stolen_1t_mb": r.stolen_1t_mb,
                        "stolen_2t_mb": r.stolen_2t_mb,
                        "slowdown": r.slowdown,
                    }
                    for r in self.rows
                ]
            )
        )
        s = self.summary()
        out.append(
            f"averages: 1 thread {s['avg_1t']:.2f}MB; 2 threads {s['avg_2t']:.2f}MB; "
            f"<1%-rule {s['avg_rule']:.2f}MB; relaxed {s['avg_relaxed']:.2f}MB"
        )
        return "\n".join(out)

    def summary(self) -> dict:
        """§III-C's aggregate steal statistics."""
        s1 = np.array([r.stolen_1t_mb for r in self.rows])
        s2 = np.array([r.stolen_2t_mb for r in self.rows])
        slow = np.array([r.slowdown for r in self.rows])
        rule = np.where(slow < self.slowdown_threshold, s2, s1)
        relaxed = np.maximum(s1, s2)
        return {
            "avg_1t": float(s1.mean()),
            "avg_2t": float(s2.mean()),
            "avg_rule": float(rule.mean()),
            "avg_relaxed": float(relaxed.mean()),
        }

    def by_name(self, name: str) -> StealRow:
        for r in self.rows:
            if r.benchmark == name:
                return r
        raise KeyError(name)


def run(scale: Scale = QUICK, seed: int = 0) -> Table2Result:
    """Measure steal capacity and thread-probe slowdown per benchmark."""
    rows = []
    for name in scale.steal_benchmarks:
        s1 = max_stealable_mb(name, 1, scale, seed=seed)
        s2 = max_stealable_mb(name, 2, scale, seed=seed)
        probe = choose_pirate_threads(
            benchmark_target(name, seed=stable_seed(seed, name)),
            max_threads=2,
            probe_instructions=scale.fixed_interval_instructions,
            seed=stable_seed(seed, name, "probe"),
        )
        rows.append(
            StealRow(
                benchmark=name,
                stolen_1t_mb=s1,
                stolen_2t_mb=s2,
                slowdown=probe.slowdown(2),
            )
        )
    return Table2Result(rows=rows)
