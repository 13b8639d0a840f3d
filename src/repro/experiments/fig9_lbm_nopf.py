"""Figure 9: 470.lbm with hardware prefetching disabled.

The paper's ablation of the prefetch effect: without prefetching, lbm's
bandwidth drops by about a third, CPI rises at *every* cache size, fetch
ratio equals miss ratio, and — crucially — the CPI curve is no longer flat,
revealing that prefetching was compensating for lost cache capacity.
The prefetch-on side is the same execution as Fig. 8's lbm curve, so
``runall`` hands this experiment the gallery it already has.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import nehalem_config
from ..core.curves import PerformanceCurve
from .common import dynamic_curve
from .scale import QUICK, Scale

BENCHMARK = "lbm"


@dataclass
class Fig9Result:
    with_prefetch: PerformanceCurve
    without_prefetch: PerformanceCurve

    def format(self) -> str:
        out = ["Figure 9 — lbm with hardware prefetching disabled"]
        out.append("prefetch ON (Fig. 8 reference):")
        out.append(self.with_prefetch.format_table())
        out.append("prefetch OFF:")
        out.append(self.without_prefetch.format_table())
        out.append(
            f"bandwidth at full cache: {self.bandwidth_drop() * 100:.0f}% of the "
            f"prefetch-enabled value; CPI rise without prefetch: "
            f"{self.cpi_flatness(False):.2f}x vs {self.cpi_flatness(True):.2f}x with"
        )
        return "\n".join(out)

    def bandwidth_drop(self) -> float:
        """BW(no prefetch)/BW(prefetch) at full cache (paper: about 2/3)."""
        on = self.with_prefetch.points[-1].bandwidth_gbps
        off = self.without_prefetch.points[-1].bandwidth_gbps
        return off / on if on else 0.0

    def cpi_flatness(self, prefetch: bool) -> float:
        """CPI(smallest)/CPI(largest); ~1.0 = flat."""
        curve = self.with_prefetch if prefetch else self.without_prefetch
        return curve.points[0].cpi / curve.points[-1].cpi

    def fetch_equals_miss_without_prefetch(self, tol: float = 0.05) -> bool:
        """Fig. 9's caption: 'Fetch ratio and miss ratio are identical.'"""
        for p in self.without_prefetch.points:
            if p.fetch_ratio > 0 and abs(p.fetch_ratio - p.miss_ratio) > tol * p.fetch_ratio:
                return False
        return True


def run(
    scale: Scale = QUICK, seed: int = 0, benchmark: str = BENCHMARK, *, fig8=None
) -> Fig9Result:
    """Measure lbm without prefetching; prefetch on is ``fig8``'s run when it has one."""
    on = fig8.curves.get(benchmark) if fig8 is not None else None
    if on is None:
        on = dynamic_curve(benchmark, scale, seed=seed)
    off = dynamic_curve(
        benchmark, scale, seed=seed, config=nehalem_config(prefetch_enabled=False)
    )
    return Fig9Result(with_prefetch=on, without_prefetch=off)
