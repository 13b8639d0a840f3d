"""Conformance verdicts and structured reports.

A differential comparison yields two curves; this module decides whether
they *agree*.  Per swept size the verdict records the fetch-ratio
divergence |pirate - reference| against the paper's 3% bound, the
miss-ratio divergence, and the CPI delta versus the solo full-cache
baseline (the "curse of the shared cache" the Pirate exists to measure).
Sizes where the Pirate exceeded its own fetch-ratio threshold are
*untrusted* — the paper's grey regions — and are reported but excluded
from pass/fail, exactly as Fig. 6 excludes them from Fig. 7's errors.

Reports are plain data: ``to_dict()`` round-trips through JSON, which is
what the CLI writes as ``conformance_report.json`` and CI uploads as an
artifact.  Nothing here depends on wall-clock time, so the same seed
always produces a bit-identical report (the ``conformance`` golden
scenario locks this in).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable

from ..config import MachineConfig
from ..observability import ensure_telemetry
from .differential import DifferentialResult, differential_compare
from .tiers import DEFAULT_CONFORMANCE_BOUND, ValidationTier


@dataclass
class PointVerdict:
    """Conformance of both models at one swept cache size."""

    size_mb: float
    pirate_fetch_ratio: float
    reference_fetch_ratio: float
    #: |pirate - reference| fetch ratio (the bounded quantity)
    fetch_divergence: float
    pirate_miss_ratio: float
    reference_miss_ratio: float
    miss_divergence: float
    #: Target CPI at this size, and its delta vs the solo full-cache run
    cpi: float
    cpi_delta: float
    #: the Pirate held its working set (its own fetch ratio under threshold)
    trusted: bool
    #: trusted and within the bound (untrusted points are never conforming)
    conforms: bool

    def to_dict(self) -> dict:
        return {
            "size_mb": self.size_mb,
            "pirate_fetch_ratio": self.pirate_fetch_ratio,
            "reference_fetch_ratio": self.reference_fetch_ratio,
            "fetch_divergence": self.fetch_divergence,
            "pirate_miss_ratio": self.pirate_miss_ratio,
            "reference_miss_ratio": self.reference_miss_ratio,
            "miss_divergence": self.miss_divergence,
            "cpi": self.cpi,
            "cpi_delta": self.cpi_delta,
            "trusted": self.trusted,
            "conforms": self.conforms,
        }


@dataclass
class ConformanceReport:
    """One workload's verdicts plus the roll-up the CI gate reads."""

    benchmark: str
    bound: float
    points: list[PointVerdict] = field(default_factory=list)
    baseline_fetch_ratio: float = 0.0
    baseline_cpi: float = 0.0

    @property
    def trusted_points(self) -> list[PointVerdict]:
        return [p for p in self.points if p.trusted]

    @property
    def violations(self) -> list[float]:
        """Trusted sizes whose fetch divergence exceeds the bound (MB)."""
        return [p.size_mb for p in self.trusted_points if not p.conforms]

    @property
    def untrusted(self) -> list[float]:
        """Grey-region sizes: the Pirate could not hold its set (MB)."""
        return [p.size_mb for p in self.points if not p.trusted]

    @property
    def worst_divergence(self) -> float:
        """Largest fetch divergence over trusted sizes."""
        trusted = self.trusted_points
        return max((p.fetch_divergence for p in trusted), default=0.0)

    @property
    def passed(self) -> bool:
        """Every trusted size conforms, and at least one size is trusted."""
        trusted = self.trusted_points
        return bool(trusted) and all(p.conforms for p in trusted)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "bound": self.bound,
            "passed": self.passed,
            "worst_divergence": self.worst_divergence,
            "violations": self.violations,
            "untrusted": self.untrusted,
            "baseline_fetch_ratio": self.baseline_fetch_ratio,
            "baseline_cpi": self.baseline_cpi,
            "points": [p.to_dict() for p in self.points],
        }

    def format(self) -> str:
        out = [f"-- {self.benchmark}"]
        out.append(
            f"{'MB':>6} {'pirate FR%':>11} {'ref FR%':>9} {'|diff|%':>8} "
            f"{'CPI':>7} {'dCPI':>7} {'verdict':>9}"
        )
        for p in self.points:
            verdict = "PASS" if p.conforms else ("GRAY" if not p.trusted else "FAIL")
            out.append(
                f"{p.size_mb:6.1f} {p.pirate_fetch_ratio * 100:11.3f} "
                f"{p.reference_fetch_ratio * 100:9.3f} {p.fetch_divergence * 100:8.3f} "
                f"{p.cpi:7.3f} {p.cpi_delta:+7.3f} {verdict:>9}"
            )
        out.append(
            f"   {'PASS' if self.passed else 'FAIL'}: worst divergence "
            f"{self.worst_divergence * 100:.3f}% vs bound {self.bound * 100:.1f}%"
            + (f", violations at {self.violations}MB" if self.violations else "")
            + (f", untrusted at {self.untrusted}MB" if self.untrusted else "")
        )
        return "\n".join(out)


def conformance_report(
    diff: DifferentialResult, bound: float = DEFAULT_CONFORMANCE_BOUND
) -> ConformanceReport:
    """Judge one differential comparison against the bound."""
    baseline_cpi = diff.baseline.target.cpi
    points = []
    for p in diff.pirate.points:
        ref_fetch = diff.reference.fetch_ratio_at(p.cache_mb)
        ref_miss = diff.reference.miss_ratio_at(p.cache_mb)
        fetch_div = abs(p.fetch_ratio - ref_fetch)
        points.append(
            PointVerdict(
                size_mb=p.cache_mb,
                pirate_fetch_ratio=p.fetch_ratio,
                reference_fetch_ratio=ref_fetch,
                fetch_divergence=fetch_div,
                pirate_miss_ratio=p.miss_ratio,
                reference_miss_ratio=ref_miss,
                miss_divergence=abs(p.miss_ratio - ref_miss),
                cpi=p.cpi,
                cpi_delta=p.cpi - baseline_cpi,
                trusted=p.valid,
                conforms=p.valid and fetch_div <= bound,
            )
        )
    return ConformanceReport(
        benchmark=diff.benchmark,
        bound=bound,
        points=points,
        baseline_fetch_ratio=diff.baseline.target.fetch_ratio,
        baseline_cpi=baseline_cpi,
    )


@dataclass
class SuiteReport:
    """The conformance oracle's verdict over a set of workloads."""

    tier: str
    seed: int
    bound: float
    reports: list[ConformanceReport] = field(default_factory=list)
    #: the report's header and the wording of its summary line
    title: ClassVar[str] = "Conformance — pirated cache vs reference simulator"
    label: ClassVar[str] = "suite"
    worst_label: ClassVar[str] = "worst divergence"

    @property
    def passed(self) -> bool:
        return bool(self.reports) and all(r.passed for r in self.reports)

    @property
    def worst_divergence(self) -> float:
        return max((r.worst_divergence for r in self.reports), default=0.0)

    @property
    def failing(self) -> list[str]:
        return [r.benchmark for r in self.reports if not r.passed]

    def by_name(self, name: str) -> ConformanceReport:
        for r in self.reports:
            if r.benchmark == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "seed": self.seed,
            "bound": self.bound,
            "passed": self.passed,
            "worst_divergence": self.worst_divergence,
            "failing": self.failing,
            "benchmarks": [r.to_dict() for r in self.reports],
        }

    def write_json(self, path: str | Path) -> None:
        """Write the report as a JSON artifact (atomic enough for CI)."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def summary_line(self) -> str:
        return (
            f"{self.label}: {'PASS' if self.passed else 'FAIL'} — "
            f"{len(self.reports) - len(self.failing)}/{len(self.reports)} benchmarks "
            f"conform, {self.worst_label} {self.worst_divergence * 100:.3f}%"
            + (f", failing: {', '.join(self.failing)}" if self.failing else "")
        )

    def format(self) -> str:
        out = [f"{self.title} (tier={self.tier}, bound={self.bound * 100:.1f}%)"]
        for r in self.reports:
            out.append(r.format())
        out.append(self.summary_line())
        return "\n".join(out)


def judge_suite(
    diffs: Iterable[DifferentialResult],
    tier: ValidationTier,
    *,
    seed: int = 0,
    telemetry=None,
    echo=None,
) -> SuiteReport:
    """Judge comparisons against ``tier``'s bound: the one place a suite's
    verdicts, ``validation_*`` counters and ``conformance_failure`` events
    are made.  ``diffs`` is consumed lazily, so ``echo`` (when given) gets
    each benchmark's report as its comparison lands.
    """
    tel = ensure_telemetry(telemetry)
    suite = SuiteReport(tier=tier.name, seed=seed, bound=tier.bound)
    for diff in diffs:
        report = conformance_report(diff, tier.bound)
        suite.reports.append(report)
        tel.count("validation_benchmarks_total")
        if not report.passed:
            tel.count("validation_failures_total")
            tel.event(
                "conformance_failure",
                benchmark=report.benchmark,
                worst_divergence=report.worst_divergence,
            )
        for _ in report.violations:
            tel.count("validation_violations_total")
        if echo is not None:
            echo(report.format())
    return suite


def validate_suite(
    names: list[str],
    tier: ValidationTier,
    *,
    config: MachineConfig | None = None,
    seed: int = 0,
    workers: int = 0,
    telemetry=None,
    echo=None,
) -> SuiteReport:
    """Run the conformance oracle over ``names`` at ``tier``.

    ``workers`` fans each benchmark's per-size pirate runs over a process
    pool; the report is identical for any worker count (a metamorphic
    invariant under test in ``tests/test_validation_props.py``).  ``echo``
    streams each benchmark's report as :func:`judge_suite` makes it.
    """
    tel = ensure_telemetry(telemetry)
    diffs = (
        differential_compare(name, tier, config=config, seed=seed, workers=workers, telemetry=tel)
        for name in names
    )
    with tel.span("validate_suite", tier=tier.name, benchmarks=len(names)):
        return judge_suite(diffs, tier, seed=seed, telemetry=tel, echo=echo)
