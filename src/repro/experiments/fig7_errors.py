"""Figure 7: absolute and relative fetch-ratio errors per benchmark.

Aggregates the Fig. 6 comparisons into the paper's error chart: per
benchmark, mean |pirate - reference| fetch ratio (absolute, left axis) and
the same normalized by the reference (relative, right axis), over cache
sizes where the Pirate stayed under the 3% threshold.  Headline paper
numbers: average absolute 0.2%, maximum absolute 2.7%; average relative 27%
dominated by the near-zero-fetch-ratio outliers (povray, h264ref).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fig6_reference import Fig6Result
from .fig6_reference import run as run_fig6
from .scale import QUICK, Scale


@dataclass
class Fig7Result:
    benchmarks: list[str] = field(default_factory=list)
    absolute: list[float] = field(default_factory=list)
    relative: list[float] = field(default_factory=list)
    max_absolute_per_bench: list[float] = field(default_factory=list)

    @property
    def avg_absolute(self) -> float:
        return float(np.mean(self.absolute)) if self.absolute else 0.0

    @property
    def max_absolute(self) -> float:
        return float(np.max(self.max_absolute_per_bench)) if self.max_absolute_per_bench else 0.0

    @property
    def avg_relative(self) -> float:
        return float(np.mean(self.relative)) if self.relative else 0.0

    def worst_relative(self, k: int = 2) -> list[tuple[str, float]]:
        """The k largest relative errors (the paper's povray/h264ref case)."""
        order = np.argsort(self.relative)[::-1][:k]
        return [(self.benchmarks[i], self.relative[i]) for i in order]

    def format(self) -> str:
        out = ["Figure 7 — fetch-ratio errors (pirate vs reference)"]
        out.append(f"{'benchmark':14} {'abs err %':>10} {'rel err %':>10}")
        for b, a, r in zip(self.benchmarks, self.absolute, self.relative):
            out.append(f"{b:14} {a * 100:10.3f} {r * 100:10.1f}")
        out.append(
            f"average abs {self.avg_absolute * 100:.3f}%  "
            f"max abs {self.max_absolute * 100:.3f}%  "
            f"average rel {self.avg_relative * 100:.1f}%"
        )
        return "\n".join(out)


def from_fig6(fig6: Fig6Result) -> Fig7Result:
    """Distill Fig. 6 comparisons into the Fig. 7 error chart."""
    result = Fig7Result()
    for c in fig6.comparisons:
        result.benchmarks.append(c.benchmark)
        result.absolute.append(c.error.absolute)
        result.relative.append(c.error.relative)
        result.max_absolute_per_bench.append(c.error.max_absolute)
    return result


def run(
    scale: Scale = QUICK,
    seed: int = 0,
    *,
    workers: int | None = None,
    telemetry=None,
    fig6: Fig6Result | None = None,
) -> Fig7Result:
    """Compute the error chart (reusing a Fig. 6 result when provided).

    Without ``fig6`` the suite is measured here, with ``workers`` and
    ``telemetry`` passed on to :func:`~repro.experiments.fig6_reference.run`.
    """
    if fig6 is None:
        fig6 = run_fig6(scale, seed, workers=workers, telemetry=telemetry)
    return from_fig6(fig6)
