"""Retry, recovery and graceful degradation for pirating measurements.

The paper's methodology *discards* measurement intervals whose Pirate fetch
ratio exceeds the 3% threshold (§III-B2).  That is not a corner case: a
deep steal (libquantum's >5MB, Table II) leaves the Pirate hot interval
after interval, and a harness that merely flags such intervals
(``IntervalSample.valid=False``) silently poisons the curve.  This module
makes every harness recover instead:

* :class:`RetryPolicy` — the knobs: a bounded attempt budget, exponential
  warm-up backoff, and a staged escalation ladder (extend warm-up → add a
  settle co-run → substitute the nearest achievable steal size),
* :func:`interval_sanity` / :func:`classify_sample` — plausibility checks
  that catch what the Pirate monitor cannot: counter deltas that disagree
  with the interval the harness ran (cut short, or cycle counts beyond its
  wall time),
* :class:`RetryEngine` — the shared recovery loop every harness routes
  invalid intervals through (:func:`measure_point_resilient` for the
  fixed-size path; :mod:`~repro.core.dynamic`, :mod:`~repro.core.multitarget`
  and :mod:`~repro.core.bandit` embed the same classification/escalation),
* :class:`PartialCurve` — a :class:`~repro.core.curves.PerformanceCurve`
  carrying per-point quality metadata (attempts, failure reasons, degraded
  size substitutions) so downstream consumers get per-point confidence
  instead of all-or-nothing curves.

Unachievable steal sizes (e.g. libquantum's >5MB ceiling, Table II) degrade
gracefully: the engine substitutes the nearest size the Pirate *can* hold
and records the substitution, rather than raising.  Strict policies raise
:class:`~repro.errors.RetryExhaustedError` / ``DegradedMeasurement`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import DegradedMeasurement, MeasurementError, RetryExhaustedError
from ..hardware.counters import CounterSample
from ..observability import ensure_telemetry
from ..units import MB
from .curves import IntervalSample, PerformanceCurve
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-budget retry and escalation parameters.

    Attempt ``k`` (1-based) warms up for ``warmup * warmup_backoff**(k-1)``
    instructions; from ``settle_after_attempt`` an unmeasured settle co-run
    precedes the interval; from ``degrade_after_attempt`` the steal size is
    reduced by ``degrade_step_mb`` per further attempt (up to
    ``max_degrade_mb``) toward the nearest achievable size.  ``strict``
    raises instead of degrading or returning failed points.
    """

    max_attempts: int = 4
    warmup_backoff: float = 2.0
    settle_after_attempt: int = 2
    settle_fraction: float = 0.3
    degrade_after_attempt: int = 3
    degrade_step_mb: float = 0.5
    max_degrade_mb: float = 3.0
    #: allowed relative deviation of an interval's retired-instruction count
    instruction_tolerance: float = 0.5
    #: allowed counter-cycles overshoot relative to the interval's wall time
    cycle_slack: float = 0.75
    strict: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise MeasurementError("retry budget must allow at least one attempt")
        if self.warmup_backoff < 1.0:
            raise MeasurementError("warm-up backoff must be >= 1")
        if self.degrade_step_mb < 0 or self.max_degrade_mb < 0:
            raise MeasurementError("degradation steps must be non-negative")

    # Policies cross process boundaries when resilient sweeps fan out to
    # pool workers; the pickled form is pinned to plain field data, and the
    # invariants are re-checked on restore so a stale or hand-edited pickle
    # cannot smuggle in an invalid budget.
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def warmup_for(self, base_instructions: float, attempt: int) -> float:
        """Warm-up length for ``attempt`` (exponential backoff)."""
        return base_instructions * self.warmup_backoff ** (attempt - 1)

    def settle_for(self, interval_instructions: float, attempt: int) -> float:
        """Unmeasured settle co-run length for ``attempt`` (0 early on)."""
        if attempt < self.settle_after_attempt:
            return 0.0
        return self.settle_fraction * interval_instructions

    def degraded_steal(self, requested_stolen_bytes: int, attempt: int) -> int:
        """Steal size for ``attempt``: stepped toward achievable, floored at 0."""
        if attempt < self.degrade_after_attempt:
            return requested_stolen_bytes
        steps = attempt - self.degrade_after_attempt + 1
        shrink_mb = min(steps * self.degrade_step_mb, self.max_degrade_mb)
        return max(int(requested_stolen_bytes - shrink_mb * MB), 0)


# -- interval plausibility ---------------------------------------------------------


def interval_sanity(
    delta: CounterSample,
    expected_instructions: float | None,
    wall_cycles: float | None,
    policy: RetryPolicy,
) -> str | None:
    """Why a counter delta is implausible, or None if it passes.

    Catches what the Pirate monitor cannot see: deltas that disagree with
    the run (``counters_corrupted``), such as an instruction count far from
    the amount the harness ran (a final dynamic interval cut short when the
    Target finishes) or cycle counts exceeding the interval's wall time.
    Empty (``counters_dropped``), negative and non-finite deltas are guards:
    the machine's counter banks only grow, so no simulated run reaches them.
    """
    if delta.instructions <= 0.0 or delta.cycles <= 0.0:
        return "counters_dropped"
    for name in (
        "mem_accesses", "l1_hits", "l2_hits", "l3_hits", "l3_misses",
        "l3_fetches", "prefetch_fills", "dram_writeback_lines",
        "dram_bytes", "l3_bytes",
    ):
        if getattr(delta, name) < 0:
            return "counters_corrupted"
    if not math.isfinite(delta.cpi):
        return "counters_corrupted"
    if expected_instructions and expected_instructions > 0:
        if (
            abs(delta.instructions - expected_instructions)
            > policy.instruction_tolerance * expected_instructions
        ):
            return "counters_corrupted"
    if wall_cycles and wall_cycles > 0:
        if delta.cycles > wall_cycles * (1.0 + policy.cycle_slack) + 100_000.0:
            return "counters_corrupted"
    return None


def classify_sample(
    sample: IntervalSample,
    expected_instructions: float | None,
    policy: RetryPolicy,
) -> str | None:
    """Why an interval must be re-measured, or None if it is trustworthy.

    Counter plausibility first (a corrupted read can *look* valid to the
    Pirate monitor), then the §III-B2 fetch-ratio verdict.
    """
    reason = interval_sanity(
        sample.target, expected_instructions, sample.wall_cycles or None, policy
    )
    if reason is not None:
        return reason
    if not sample.valid:
        return "pirate_hot"
    return None


# -- quality metadata --------------------------------------------------------------


@dataclass
class PointQuality:
    """Per-point measurement provenance carried by a :class:`PartialCurve`."""

    #: Target-available cache size the caller asked for (MB)
    requested_mb: float
    #: size actually measured (differs from requested after degradation)
    measured_mb: float
    #: total measurement attempts spent on this point
    attempts: int
    #: Pirate fetch ratio of the accepted (or final) attempt
    pirate_fetch_ratio: float
    #: whether the accepted attempt was fully trustworthy
    valid: bool
    #: failure reasons of the discarded attempts, in order
    reasons: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when the point was measured at a substituted size."""
        return abs(self.measured_mb - self.requested_mb) > 1e-9

    @property
    def quarantined(self) -> bool:
        """True when the supervisor gave up on this point (see ``repro.core.parallel``)."""
        return "quarantined" in self.reasons

    @property
    def surrogate(self) -> bool:
        """True when the point was predicted analytically, not measured."""
        return "surrogate" in self.reasons

    @property
    def label(self) -> str:
        """Compact tag for tables: ok / retried / sub<-X / failed / quarantined
        (plus surrogate / surrogate-grey for analytically predicted points)."""
        if self.quarantined:
            return "quarantined"
        if self.surrogate:
            return "surrogate" if self.valid else "surrogate-grey"
        if not self.valid:
            return "failed"
        if self.degraded:
            return f"sub<-{self.requested_mb:.1f}MB"
        return "retried" if self.attempts > 1 else "ok"


@dataclass
class PartialCurve(PerformanceCurve):
    """A performance curve with per-point quality metadata.

    Produced by the resilient harnesses instead of raising on unachievable
    sizes or exhausted retries: every point carries its attempt count, the
    reasons earlier attempts were discarded, and any degraded-size
    substitution, keyed by the point's ``cache_bytes``.
    """

    quality: dict[int, PointQuality] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every point is valid, undegraded and first-try-or-retried."""
        return all(p.valid for p in self.points) and not any(
            q.degraded or not q.valid for q in self.quality.values()
        )

    def quality_at(self, cache_bytes: int) -> PointQuality | None:
        """Quality metadata for the point at ``cache_bytes`` (None if unknown)."""
        return self.quality.get(cache_bytes)

    def degraded_points(self) -> list[PointQuality]:
        """Quality records measured at substituted sizes."""
        return [q for q in self.quality.values() if q.degraded]

    def quarantined_points(self) -> list[PointQuality]:
        """Quality records of points the supervisor quarantined.

        Quarantined points have *no* curve point (their samples are empty),
        only this quality record — the curve is shorter than the requested
        grid, and this is the explicit account of what is missing and why.
        """
        return [q for q in self.quality.values() if q.quarantined]

    def to_rows(self) -> list[dict]:
        """Curve rows extended with ``attempts`` and ``quality`` columns."""
        rows = super().to_rows()
        for row, p in zip(rows, self.points):
            q = self.quality.get(p.cache_bytes)
            row["attempts"] = q.attempts if q else 1
            row["quality"] = q.label if q else "ok"
        return rows

    def format_table(self) -> str:
        """Human-readable table with the quality/attempts column."""
        lines = [
            f"# {self.benchmark}",
            f"{'MB':>6} {'CPI':>7} {'BW GB/s':>8} {'fetch%':>8} {'miss%':>8} "
            f"{'pirate%':>8} {'ok':>3} {'att':>4} {'quality':>12}",
        ]
        for p in self.points:
            q = self.quality.get(p.cache_bytes)
            attempts = q.attempts if q else 1
            label = q.label if q else "ok"
            lines.append(
                f"{p.cache_mb:6.1f} {p.cpi:7.3f} {p.bandwidth_gbps:8.3f} "
                f"{p.fetch_ratio * 100:8.3f} {p.miss_ratio * 100:8.3f} "
                f"{p.pirate_fetch_ratio * 100:8.2f} {'y' if p.valid else 'n':>3} "
                f"{attempts:4d} {label:>12}"
            )
        return "\n".join(lines)


# -- the shared recovery loop ------------------------------------------------------


@dataclass(frozen=True)
class AttemptSpec:
    """Escalation parameters the engine hands a harness for one attempt."""

    attempt: int
    warmup_instructions: float
    settle_instructions: float
    stolen_bytes: int


@dataclass
class RecoveryOutcome:
    """What the retry engine recovered for one measurement point."""

    samples: list[IntervalSample]
    payload: object
    attempts: int
    reasons: list[str]
    stolen_bytes: int
    succeeded: bool


class RetryEngine:
    """The shared invalid-interval recovery loop.

    A harness supplies an ``attempt`` callable mapping an
    :class:`AttemptSpec` to ``(samples, payload)``; the engine classifies
    every sample, and either accepts the attempt or escalates per the policy
    until the budget is spent.
    """

    def __init__(self, policy: RetryPolicy | None = None, telemetry=None):
        self.policy = policy or RetryPolicy()
        self.telemetry = ensure_telemetry(telemetry)

    def run(
        self,
        attempt: Callable[[AttemptSpec], tuple[list[IntervalSample], object]],
        *,
        base_warmup_instructions: float,
        interval_instructions: float,
        requested_stolen_bytes: int,
        l3_size: int,
        expected_instructions: float | None = None,
    ) -> RecoveryOutcome:
        """Measure one point, escalating until clean or out of budget."""
        policy = self.policy
        tel = self.telemetry
        expected = (
            expected_instructions
            if expected_instructions is not None
            else interval_instructions
        )
        reasons: list[str] = []
        last: tuple[list[IntervalSample], object, AttemptSpec] | None = None
        for k in range(1, policy.max_attempts + 1):
            stolen = min(max(policy.degraded_steal(requested_stolen_bytes, k), 0), l3_size)
            spec = AttemptSpec(
                attempt=k,
                warmup_instructions=policy.warmup_for(base_warmup_instructions, k),
                settle_instructions=policy.settle_for(interval_instructions, k),
                stolen_bytes=stolen,
            )
            with tel.span("attempt", attempt=k, stolen_mb=stolen / MB):
                samples, payload = attempt(spec)
            bad = sorted({
                r for s in samples
                if (r := classify_sample(s, expected, policy)) is not None
            })
            last = (samples, payload, spec)
            if samples and not bad:
                tel.gauge("retry_attempts_max", float(k))
                return RecoveryOutcome(samples, payload, k, reasons, stolen, True)
            reasons.extend(bad or ["no_samples"])
            if k < policy.max_attempts:
                # one event per escalation: attempt k failed, attempt k+1
                # runs with longer warm-up / settle / degraded steal size
                tel.count("retries_total")
                tel.event(
                    "retry_escalation",
                    attempt=k,
                    reasons=bad or ["no_samples"],
                    next_warmup_instructions=policy.warmup_for(
                        base_warmup_instructions, k + 1
                    ),
                    degraded_next=policy.degraded_steal(requested_stolen_bytes, k + 1)
                    != requested_stolen_bytes,
                )
        tel.gauge("retry_attempts_max", float(policy.max_attempts))
        tel.count("retries_exhausted_total")
        tel.event("retries_exhausted", reasons=reasons)
        samples, payload, spec = last  # type: ignore[misc]
        return RecoveryOutcome(
            samples, payload, self.policy.max_attempts, reasons, spec.stolen_bytes, False
        )


# -- resilient harness entry points ------------------------------------------------


def measure_point_resilient(
    target_factory,
    stolen_bytes: int,
    *,
    config: MachineConfig | None = None,
    policy: RetryPolicy | None = None,
    num_pirate_threads: int = 1,
    interval_instructions: float | None = None,
    n_intervals: int = 2,
    warmup_instructions: float | None = None,
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    seed: int = 0,
    quantum: float | None = None,
    telemetry=None,
):
    """One fixed-size point, re-measured until trustworthy or degraded.

    Returns ``(FixedSizeResult, PointQuality)``.  Each attempt is a fresh
    co-run with escalated warm-up and, later, an unmeasured settle co-run
    that lets the Pirate re-claim its lines; from the policy's degradation stage
    the steal size steps toward the nearest achievable one.  Strict policies
    raise :class:`RetryExhaustedError` / :class:`DegradedMeasurement`.
    """
    from .harness import DEFAULT_INTERVAL_INSTRUCTIONS, measure_fixed_size

    config = config or nehalem_config()
    tel = ensure_telemetry(telemetry)
    policy = policy or RetryPolicy()
    if interval_instructions is None:
        interval_instructions = DEFAULT_INTERVAL_INSTRUCTIONS
    requested = int(stolen_bytes)
    if not 0 <= requested <= config.l3.size:
        raise MeasurementError(f"cannot steal {requested} of {config.l3.size} bytes")
    base_warm = (
        warmup_instructions if warmup_instructions is not None else interval_instructions
    )

    def attempt(spec: AttemptSpec):
        res = measure_fixed_size(
            target_factory,
            spec.stolen_bytes,
            config=config,
            num_pirate_threads=num_pirate_threads,
            interval_instructions=interval_instructions,
            n_intervals=n_intervals,
            warmup_instructions=spec.warmup_instructions,
            settle_instructions=spec.settle_instructions,
            threshold=threshold,
            seed=seed,
            quantum=quantum,
            telemetry=tel,
        )
        return res.samples, res

    outcome = RetryEngine(policy, telemetry=tel).run(
        attempt,
        base_warmup_instructions=base_warm,
        interval_instructions=interval_instructions,
        requested_stolen_bytes=requested,
        l3_size=config.l3.size,
    )
    quality = PointQuality(
        requested_mb=(config.l3.size - requested) / MB,
        measured_mb=(config.l3.size - outcome.stolen_bytes) / MB,
        attempts=outcome.attempts,
        pirate_fetch_ratio=max(
            (s.pirate_fetch_ratio for s in outcome.samples), default=0.0
        ),
        valid=outcome.succeeded,
        reasons=outcome.reasons,
    )
    if quality.degraded:
        tel.count("degraded_points_total")
        tel.event(
            "degraded_point",
            requested_mb=quality.requested_mb,
            measured_mb=quality.measured_mb,
            attempts=quality.attempts,
        )
    if not outcome.succeeded:
        tel.count("failed_points_total")
    if policy.strict:
        if not outcome.succeeded:
            raise RetryExhaustedError(
                f"no trustworthy interval after {outcome.attempts} attempts "
                f"(requested {quality.requested_mb:.1f}MB target cache): "
                f"{', '.join(outcome.reasons) or 'no samples'}",
                attempts=outcome.attempts,
                reasons=outcome.reasons,
            )
        if quality.degraded:
            raise DegradedMeasurement(
                f"steal of {requested / MB:.1f}MB unachievable; nearest achievable "
                f"leaves the Target {quality.measured_mb:.1f}MB "
                f"(requested {quality.requested_mb:.1f}MB)"
            )
    return outcome.payload, quality


def measure_curve_resilient(
    target_factory,
    sizes_mb: list[float],
    *,
    benchmark: str | None = None,
    config: MachineConfig | None = None,
    policy: RetryPolicy | None = None,
    num_pirate_threads: int = 1,
    interval_instructions: float | None = None,
    n_intervals: int = 2,
    warmup_instructions: float | None = None,
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    seed: int = 0,
    quantum: float | None = None,
    workers: int = 0,
    cache_dir=None,
    supervise=None,
    journal_dir=None,
    run_id: str | None = None,
    resume: bool = False,
    telemetry=None,
) -> PartialCurve:
    """A full fixed-size curve through the retry engine.

    Never raises on a bad point (unless the policy is strict): untrusted
    intervals are re-measured, unachievable sizes land at the
    nearest achievable size, and whatever could not be recovered survives as
    a ``valid=False`` point — all of it recorded per point in the returned
    :class:`PartialCurve`'s quality map.

    Delegates to :func:`~repro.core.harness.measure_curve_fixed` with the
    policy installed, so resilient sweeps get the same parallel fan-out
    (``workers``), deterministic per-point seeds, and result caching
    (``cache_dir``) as plain ones — with quality metadata merged back in
    point order even when workers complete out of order.
    """
    from .harness import DEFAULT_INTERVAL_INSTRUCTIONS, measure_curve_fixed

    if not callable(target_factory):
        raise MeasurementError("measure_curve_resilient needs a factory for fresh targets")
    return measure_curve_fixed(
        target_factory,
        list(sizes_mb),
        benchmark=benchmark,
        config=config,
        num_pirate_threads=num_pirate_threads,
        interval_instructions=(
            interval_instructions
            if interval_instructions is not None
            else DEFAULT_INTERVAL_INSTRUCTIONS
        ),
        n_intervals=n_intervals,
        warmup_instructions=warmup_instructions,
        threshold=threshold,
        seed=seed,
        quantum=quantum,
        retry=policy or RetryPolicy(),
        workers=workers,
        cache_dir=cache_dir,
        supervise=supervise,
        journal_dir=journal_dir,
        run_id=run_id,
        resume=resume,
        telemetry=telemetry,
    )
