"""Retry, recovery and graceful degradation for pirating measurements.

The paper's methodology *discards* measurement intervals whose Pirate fetch
ratio exceeds the 3% threshold (§III-B2).  That is not a corner case: a
deep steal (libquantum's >5MB, Table II) leaves the Pirate hot interval
after interval, and a harness that merely flags such intervals
(``IntervalSample.valid=False``) silently poisons the curve.  This module
makes every harness recover instead:

* :class:`RetryPolicy` — the knobs a caller sets: the attempt budget and the
  attempt from which a fixed-size point may degrade; the escalation ladder
  itself (exponential warm-up backoff → a settle co-run → a stepped steal
  size) is fixed by this module's constants,
* :func:`interval_sanity` / :func:`classify_sample` — plausibility checks
  that catch what the Pirate monitor cannot: counter deltas that disagree
  with the interval the harness ran (short of what it could retire, or
  cycle counts beyond its wall time),
* :class:`RetryEngine` — the one recovery loop every harness routes invalid
  intervals through (:func:`measure_point_resilient` for the fixed-size
  path, :func:`~repro.core.dynamic.measure_curve_dynamic` and
  :func:`~repro.core.multitarget.measure_multithreaded`),
* :class:`PartialCurve` — a :class:`~repro.core.curves.PerformanceCurve`
  carrying per-point quality metadata (attempts, failure reasons, degraded
  size substitutions) so downstream consumers get per-point confidence
  instead of all-or-nothing curves.

Unachievable steal sizes (e.g. libquantum's >5MB ceiling, Table II) degrade
gracefully: the fixed-size harness substitutes the nearest size the Pirate
*can* hold and records the substitution, rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.counters import CounterSample
from ..observability import ensure_telemetry
from ..units import MB
from .curves import IntervalSample, PerformanceCurve
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD

#: attempt ``k`` (1-based) warms up for ``base * WARMUP_BACKOFF**(k-1)``
WARMUP_BACKOFF = 2.0
#: from this attempt an unmeasured settle co-run precedes the interval ...
SETTLE_AFTER_ATTEMPT = 2
#: ... lasting this fraction of the interval
SETTLE_FRACTION = 0.3
#: a degrading point's steal shrinks by this much per attempt ...
DEGRADE_STEP_MB = 0.5
#: ... and by no more than this in all
MAX_DEGRADE_MB = 3.0
#: allowed relative shortfall of an interval's retired-instruction count
INSTRUCTION_TOLERANCE = 0.5
#: allowed counter-cycles overshoot relative to the interval's wall time
CYCLE_SLACK = 0.75


@dataclass(frozen=True)
class RetryPolicy:
    """The attempt budget and when a fixed-size point may degrade.

    From attempt ``degrade_after_attempt`` (1-based) the fixed-size harness
    shrinks the steal size by :data:`DEGRADE_STEP_MB` per further attempt
    (up to :data:`MAX_DEGRADE_MB`) toward the nearest achievable size.
    """

    max_attempts: int = 4
    degrade_after_attempt: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise MeasurementError("retry budget must allow at least one attempt")

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

    def degraded_steal(self, requested_stolen_bytes: int, attempt: int) -> int:
        """Steal size for ``attempt``: stepped toward achievable, floored at 0."""
        if attempt < self.degrade_after_attempt:
            return requested_stolen_bytes
        steps = attempt - self.degrade_after_attempt + 1
        shrink_mb = min(steps * DEGRADE_STEP_MB, MAX_DEGRADE_MB)
        return max(int(requested_stolen_bytes - shrink_mb * MB), 0)


def _warmup_for(base_instructions: float, attempt: int) -> float:
    """Warm-up length for ``attempt`` (exponential backoff)."""
    return base_instructions * WARMUP_BACKOFF ** (attempt - 1)


def _settle_for(interval_instructions: float, attempt: int) -> float:
    """Unmeasured settle co-run length for ``attempt`` (0 early on)."""
    if attempt < SETTLE_AFTER_ATTEMPT:
        return 0.0
    return SETTLE_FRACTION * interval_instructions


# -- interval plausibility ---------------------------------------------------------


def interval_sanity(
    delta: CounterSample,
    expected_instructions: float | None,
    wall_cycles: float | None,
) -> str | None:
    """Why a counter delta is implausible, or None if it passes.

    Catches what the Pirate monitor cannot see: deltas that disagree with
    the run (``counters_corrupted``), such as an instruction count far short
    of ``expected_instructions`` — what the interval could retire — or cycle
    counts exceeding the interval's wall time.  Retiring *more* than asked
    is plausible: the machine checks an interval's goal only between
    scheduler quanta, so a short interval overshoots it.  Empty
    (``counters_dropped``), negative and non-finite deltas are guards: the
    machine's counter banks only grow, so no simulated run reaches them.
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
        if delta.instructions < (1.0 - INSTRUCTION_TOLERANCE) * expected_instructions:
            return "counters_corrupted"
    if wall_cycles and wall_cycles > 0:
        if delta.cycles > wall_cycles * (1.0 + CYCLE_SLACK) + 100_000.0:
            return "counters_corrupted"
    return None


def classify_sample(
    sample: IntervalSample, expected_instructions: float | None
) -> str | None:
    """Why an interval must be re-measured, or None if it is trustworthy.

    Counter plausibility first (a corrupted read can *look* valid to the
    Pirate monitor), then the §III-B2 fetch-ratio verdict.
    """
    reason = interval_sanity(
        sample.target, expected_instructions, sample.wall_cycles or None
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
    #: supervisor attempts beyond the first that a sweep made at a point
    #: (keyed like ``quality``; each attempt's retry-engine attempts are
    #: in ``quality``); the table's ``att`` column adds them
    supervisor_retries: dict[int, int] = field(default_factory=dict)

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
        """Human-readable table with the quality/attempts column (``att``
        counts retry-engine and supervisor attempts)."""
        lines = [
            f"# {self.benchmark}",
            f"{'MB':>6} {'CPI':>7} {'BW GB/s':>8} {'fetch%':>8} {'miss%':>8} "
            f"{'pirate%':>8} {'ok':>3} {'att':>4} {'quality':>12}",
        ]
        for p in self.points:
            q = self.quality.get(p.cache_bytes)
            attempts = (q.attempts if q else 1) + self.supervisor_retries.get(p.cache_bytes, 0)
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


#: what a harness's attempt returns: the samples to judge, the harness's own
#: result, and the instructions each sample's interval could retire
AttemptResult = tuple[list[IntervalSample], object, float]


@dataclass
class RecoveryOutcome:
    """What the retry engine recovered for one measurement point."""

    samples: list[IntervalSample]
    payload: object
    attempts: int
    reasons: list[str]
    succeeded: bool


class RetryEngine:
    """The invalid-interval recovery loop every harness routes through.

    A harness supplies an ``attempt`` callable mapping an
    :class:`AttemptSpec` to an :data:`AttemptResult`; the engine classifies
    every sample, and either accepts the attempt or escalates until the
    policy's budget is spent.  An attempt after the first may decline by
    returning None (say, the Target finished during its re-warm): the engine
    then ends with the previous attempt and the reasons recorded so far.
    """

    def __init__(self, policy: RetryPolicy | None = None, telemetry=None):
        self.policy = policy or RetryPolicy()
        self.telemetry = ensure_telemetry(telemetry)

    def run(
        self,
        attempt: Callable[[AttemptSpec], AttemptResult | None],
        *,
        base_warmup_instructions: float,
        interval_instructions: float,
    ) -> RecoveryOutcome:
        """Measure one point, escalating until clean or out of budget."""
        tel = self.telemetry
        reasons: list[str] = []
        last: RecoveryOutcome | None = None
        for k in range(1, self.policy.max_attempts + 1):
            spec = AttemptSpec(
                attempt=k,
                warmup_instructions=_warmup_for(base_warmup_instructions, k),
                settle_instructions=_settle_for(interval_instructions, k),
            )
            with tel.span("attempt", attempt=k):
                result = attempt(spec)
            if result is None:
                break
            samples, payload, expected = result
            bad = sorted({
                r for s in samples
                if (r := classify_sample(s, expected)) is not None
            })
            last = RecoveryOutcome(samples, payload, k, reasons, bool(samples) and not bad)
            if last.succeeded:
                tel.gauge("retry_attempts_max", float(k))
                return last
            reasons.extend(bad or ["no_samples"])
            if k < self.policy.max_attempts:
                # one event per escalation: attempt k failed, attempt k+1
                # runs with a longer warm-up and, later, a settle co-run
                tel.count("retries_total")
                tel.event(
                    "retry_escalation",
                    attempt=k,
                    reasons=bad or ["no_samples"],
                    next_warmup_instructions=_warmup_for(base_warmup_instructions, k + 1),
                )
        assert last is not None, "the first attempt may not decline"
        tel.gauge("retry_attempts_max", float(last.attempts))
        tel.count("retries_exhausted_total")
        tel.event("retries_exhausted", reasons=reasons)
        return last


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
    telemetry=None,
):
    """One fixed-size point, re-measured until trustworthy or degraded.

    Returns ``(FixedSizeResult, PointQuality)``.  Each attempt is a fresh
    co-run with escalated warm-up and, later, an unmeasured settle co-run
    that lets the Pirate re-claim its lines; from the policy's degradation
    stage the steal size steps toward the nearest achievable one.
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

    def attempt(spec: AttemptSpec) -> AttemptResult:
        res = measure_fixed_size(
            target_factory,
            policy.degraded_steal(requested, spec.attempt),
            config=config,
            num_pirate_threads=num_pirate_threads,
            interval_instructions=interval_instructions,
            n_intervals=n_intervals,
            warmup_instructions=spec.warmup_instructions,
            settle_instructions=spec.settle_instructions,
            threshold=threshold,
            seed=seed,
            telemetry=tel,
        )
        return res.samples, res, interval_instructions

    outcome = RetryEngine(policy, telemetry=tel).run(
        attempt,
        base_warmup_instructions=base_warm,
        interval_instructions=interval_instructions,
    )
    result = outcome.payload
    quality = PointQuality(
        requested_mb=(config.l3.size - requested) / MB,
        measured_mb=(config.l3.size - result.stolen_bytes) / MB,
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
    return result, quality
