"""Grading tier for the analytic surrogate engine.

The conformance oracle (:mod:`~repro.validation.conformance`) certifies
the *pirated cache* against the reference simulator; this module certifies
the *surrogate predictor* the same way.  Per benchmark it reuses the exact
differential pipeline head — same profiling step, same markers, same
captured trace, same calibrated reference curve — then substitutes the
surrogate model for the Pirate side:

1. profile the workload, trace the hot window and replay the trace
   through the reference simulator at every tier size
   (:func:`~repro.validation.differential.traced_window`, the head
   :func:`~repro.validation.differential.differential_compare` runs),
2. build a :class:`~repro.surrogate.SurrogateModel` from the *same* trace
   (``skip_fraction`` mirrors the reference warm-up fraction), predict
   every size, and anchor the predicted curve at the full-cache point the
   same way §III-B1 anchors measured curves to a solo baseline,
3. grade each size PASS / GRAY / FAIL against the tier's fetch-ratio
   bound.  GRAY marks sizes the model itself flags as low-confidence (its
   error estimate exceeds the surrogate bound) — the documented grey
   regions, excluded from pass/fail exactly like the paper's untrusted
   points.  A FAIL is a *trusted* prediction that still diverges: the
   model was confidently wrong, which is what this oracle exists to catch.

``repro validate --engine surrogate`` and the CI surrogate-conformance job
run :func:`grade_suite` over the full workload grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..analysis.reuse import reuse_profile
from ..config import MachineConfig, nehalem_config
from ..core.parallel import parallel_map
from ..observability import ensure_telemetry
from ..rng import stable_seed
from ..surrogate import SurrogateModel, SurrogatePolicy
from ..units import LINE_SIZE, MB
from ..workloads import benchmark_target
from .conformance import SuiteReport
from .differential import traced_window
from .tiers import ValidationTier


@dataclass
class SizeGrade:
    """The surrogate's verdict at one swept cache size."""

    size_mb: float
    predicted_fetch_ratio: float
    reference_fetch_ratio: float
    #: |anchored prediction - reference| (the bounded quantity)
    divergence: float
    #: the model's self-reported uncertainty at this size
    error_estimate: float
    #: the model called this prediction confident
    trusted: bool
    #: "PASS" (trusted, within bound), "GRAY" (untrusted), "FAIL"
    verdict: str

    def to_dict(self) -> dict:
        return {
            "size_mb": self.size_mb,
            "predicted_fetch_ratio": self.predicted_fetch_ratio,
            "reference_fetch_ratio": self.reference_fetch_ratio,
            "divergence": self.divergence,
            "error_estimate": self.error_estimate,
            "trusted": self.trusted,
            "verdict": self.verdict,
        }


@dataclass
class SurrogateGrade:
    """One workload's per-size grades plus the roll-up the CI gate reads."""

    benchmark: str
    bound: float
    grades: list[SizeGrade] = field(default_factory=list)
    #: anchor offset applied to the predicted curve (§III-B1-style)
    offset: float = 0.0

    @property
    def failures(self) -> list[float]:
        return [g.size_mb for g in self.grades if g.verdict == "FAIL"]

    @property
    def grey(self) -> list[float]:
        """Documented grey regions: sizes the model flags itself (MB)."""
        return [g.size_mb for g in self.grades if g.verdict == "GRAY"]

    @property
    def worst_divergence(self) -> float:
        trusted = [g.divergence for g in self.grades if g.trusted]
        return max(trusted, default=0.0)

    @property
    def passed(self) -> bool:
        """No trusted prediction diverges beyond the bound."""
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "bound": self.bound,
            "passed": self.passed,
            "worst_divergence": self.worst_divergence,
            "failures": self.failures,
            "grey": self.grey,
            "offset": self.offset,
            "grades": [g.to_dict() for g in self.grades],
        }

    def format(self) -> str:
        out = [f"-- {self.benchmark}"]
        out.append(
            f"{'MB':>6} {'pred FR%':>9} {'ref FR%':>9} {'|diff|%':>8} "
            f"{'est%':>7} {'verdict':>8}"
        )
        for g in self.grades:
            out.append(
                f"{g.size_mb:6.1f} {g.predicted_fetch_ratio * 100:9.3f} "
                f"{g.reference_fetch_ratio * 100:9.3f} {g.divergence * 100:8.3f} "
                f"{g.error_estimate * 100:7.3f} {g.verdict:>8}"
            )
        out.append(
            f"   {'PASS' if self.passed else 'FAIL'}: worst trusted divergence "
            f"{self.worst_divergence * 100:.3f}% vs bound {self.bound * 100:.1f}%"
            + (f", failures at {self.failures}MB" if self.failures else "")
            + (f", grey at {self.grey}MB" if self.grey else "")
        )
        return "\n".join(out)


@dataclass
class SurrogateSuiteReport(SuiteReport):
    """The surrogate oracle's verdict over a set of workloads."""

    reports: list[SurrogateGrade] = field(default_factory=list)
    title: ClassVar[str] = "Surrogate grading — analytic prediction vs reference simulator"
    label: ClassVar[str] = "surrogate suite"
    worst_label: ClassVar[str] = "worst trusted divergence"

    def to_dict(self) -> dict:
        return {**super().to_dict(), "engine": "surrogate"}


def grade_surrogate(
    name: str,
    tier: ValidationTier,
    *,
    config: MachineConfig | None = None,
    seed: int = 0,
    policy: SurrogatePolicy | None = None,
    telemetry=None,
) -> SurrogateGrade:
    """Grade the surrogate's curve prediction for one benchmark.

    The prediction is demand-only, so the reference runs prefetch-disabled
    (the default config here, matching :func:`differential_compare`).
    """
    config = config or nehalem_config(prefetch_enabled=False)
    policy = policy or SurrogatePolicy()
    tel = ensure_telemetry(telemetry)
    factory = benchmark_target(name, seed=stable_seed(seed, name))

    with tel.span("grade_surrogate", benchmark=name, tier=tier.name):
        _, _, trace, ref = traced_window(name, factory, tier, config, seed, tel)

        # surrogate side: same trace, warm-up skip mirroring the reference
        sprof = reuse_profile(trace, skip_fraction=tier.reference_warmup_fraction)
        model = SurrogateModel(sprof, config, bound=policy.bound)
        sizes = sorted(tier.sizes_mb)
        preds = {s: model.predict_lines(int(s * MB) // LINE_SIZE) for s in sizes}

        # anchor at the full-cache point, as §III-B1 anchors measured curves
        # to a solo baseline; by construction the largest size diverges by
        # the reference's own residual only
        largest = sizes[-1]
        offset = ref.fetch_ratio_at(largest) - preds[largest].fetch_ratio

        grade = SurrogateGrade(benchmark=name, bound=tier.bound, offset=offset)
        for s in sizes:
            pred = preds[s]
            anchored = max(pred.fetch_ratio + offset, 0.0)
            ref_fetch = ref.fetch_ratio_at(s)
            divergence = abs(anchored - ref_fetch)
            trusted = pred.confident
            if not trusted:
                verdict = "GRAY"
            elif divergence <= tier.bound:
                verdict = "PASS"
            else:
                verdict = "FAIL"
            grade.grades.append(
                SizeGrade(
                    size_mb=s,
                    predicted_fetch_ratio=anchored,
                    reference_fetch_ratio=ref_fetch,
                    divergence=divergence,
                    error_estimate=pred.error_estimate,
                    trusted=trusted,
                    verdict=verdict,
                )
            )
        tel.count("surrogate_grades_total", len(grade.grades))
        if not grade.passed:
            tel.event(
                "surrogate_grade_failure",
                benchmark=name,
                worst_divergence=grade.worst_divergence,
            )
    return grade


@dataclass(frozen=True)
class _GradeTask:
    """One benchmark's grading run; module-level data, so it pickles."""

    name: str
    tier: ValidationTier
    config: MachineConfig | None
    seed: int
    policy: SurrogatePolicy | None


def _grade_one(task: _GradeTask) -> SurrogateGrade:
    return grade_surrogate(
        task.name,
        task.tier,
        config=task.config,
        seed=task.seed,
        policy=task.policy,
    )


def grade_suite(
    names: list[str],
    tier: ValidationTier,
    *,
    config: MachineConfig | None = None,
    seed: int = 0,
    workers: int = 0,
    policy: SurrogatePolicy | None = None,
    telemetry=None,
    echo=None,
) -> SurrogateSuiteReport:
    """Grade the surrogate over ``names`` at ``tier``.

    Each benchmark is one independent task, fanned over
    :func:`~repro.core.parallel.parallel_map` when ``workers >= 2``; the
    report is identical for any worker count.
    """
    tel = ensure_telemetry(telemetry)
    suite = SurrogateSuiteReport(tier=tier.name, seed=seed, bound=tier.bound)
    tasks = [_GradeTask(name, tier, config, seed, policy) for name in names]
    with tel.span("grade_suite", tier=tier.name, benchmarks=len(names)):
        for grade in parallel_map(_grade_one, tasks, workers=workers):
            suite.reports.append(grade)
            tel.count("surrogate_benchmarks_total")
            if not grade.passed:
                tel.count("surrogate_failures_total")
            if echo is not None:
                echo(grade.format())
    return suite
