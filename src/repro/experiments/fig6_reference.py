"""Figure 6: pirate vs reference fetch-ratio curves.

The paper's central validation: for each (traceable) benchmark, capture an
address trace of the hot region, generate a reference fetch-ratio curve
with the Nehalem-policy trace simulator (prefetchers disabled, baseline-
offset calibrated), and measure the same window with the Pirate attached at
the same instruction markers.  Grey regions mark cache sizes where the
Pirate's fetch ratio exceeded the 3% threshold.

Per §III-B1, the markers come from a flat profile (the Gprof step): tracing
starts where the hot code begins rather than after a fixed fast-forward.

The methodology itself lives in :mod:`repro.validation.differential`; this
module adapts the experiment's :class:`~repro.experiments.scale.Scale` into
a validation tier, runs the suite once and renders the figure.  The
result is the one §III-B measurement of a paper replay:
:mod:`~repro.experiments.fig7_errors` and
:mod:`~repro.experiments.conformance` are views over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..validation.differential import DifferentialResult, differential_compare, tier_from_scale
from .scale import QUICK, Scale


def _format_comparison(diff: DifferentialResult) -> str:
    out = [f"-- {diff.benchmark}"]
    out.append(f"{'MB':>5} {'pirate FR%':>11} {'reference FR%':>14} {'trusted':>8}")
    for p in diff.pirate.points:
        ref = diff.reference.fetch_ratio_at(p.cache_mb)
        out.append(
            f"{p.cache_mb:5.1f} {p.fetch_ratio * 100:11.3f} {ref * 100:14.3f} "
            f"{'y' if p.valid else 'GRAY':>8}"
        )
    out.append(
        f"   abs err {diff.error.absolute * 100:.3f}%  "
        f"rel err {diff.error.relative * 100:.1f}%"
    )
    return "\n".join(out)


@dataclass
class Fig6Result:
    #: one differential comparison per benchmark, in suite order
    comparisons: list[DifferentialResult] = field(default_factory=list)

    def format(self) -> str:
        out = ["Figure 6 — pirate vs reference fetch-ratio curves (prefetch off)"]
        out.extend(_format_comparison(c) for c in self.comparisons)
        return "\n".join(out)

    def by_name(self, name: str) -> DifferentialResult:
        for c in self.comparisons:
            if c.benchmark == name:
                return c
        raise KeyError(name)


def run(
    scale: Scale = QUICK,
    seed: int = 0,
    *,
    workers: int | None = None,
    telemetry=None,
) -> Fig6Result:
    """Compare every reference benchmark (plus Cigar, §III-A) both ways.

    ``workers >= 2`` fans each benchmark's per-size pirate runs over a
    process pool (default: the scale's ``max_workers``); the result is
    identical for any worker count.  ``telemetry`` receives each
    comparison's ``validate_*`` spans.
    """
    if workers is None:
        workers = scale.max_workers
    tier = tier_from_scale(scale)
    return Fig6Result(
        comparisons=[
            differential_compare(name, tier, seed=seed, workers=workers, telemetry=telemetry)
            for name in scale.validation_benchmarks
        ]
    )
