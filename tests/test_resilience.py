"""The retry/recovery engine under real untrusted intervals.

Every trigger here is one a real run produces: a Pirate that runs hot
(§III-B2) because the Target's working set fights it for the shared cache.
A random 3MB working set against a 6-6.5MB steal is hot at first and
settles after the engine's escalation; a 1.5MB one against a 7.5MB steal
never settles, so the point degrades to the nearest achievable size.
Counter plausibility failures, which no real run produces on its own, are
reached by glitching ``PerfCounters.sample`` inside the test.
"""

import math
from dataclasses import replace

import pytest

from repro import Telemetry, random_micro
from repro.core.harness import measure_curve_fixed
from repro.core.resilience import (
    PartialCurve,
    RetryPolicy,
    interval_sanity,
    measure_curve_resilient,
    measure_point_resilient,
)
from repro.errors import DegradedMeasurement, RetryExhaustedError
from repro.hardware.counters import CounterSample, PerfCounters

MB = 1024 * 1024

#: schedule shared by the fixed-size recovery tests: small enough to be
#: fast, long enough a warm-up extension does not move the steady state
INTERVAL = 60_000.0
WARMUP = 200_000.0


def _settling_target():
    """Hot against a 6-6.5MB steal at first; clean after a settle co-run."""
    return random_micro(3.0, seed=7)


def _policy(**kw):
    kw.setdefault("max_attempts", 5)
    kw.setdefault("degrade_after_attempt", 10**6)  # recover by retry, not size
    return RetryPolicy(**kw)


def _glitch_target_reads(monkeypatch, reads, glitch):
    """Pass the Target core's counter reads numbered ``reads`` through ``glitch``.

    Reads are counted from 1 over the whole test; each measured interval
    takes two (before and after).
    """
    real = PerfCounters.sample
    seen = [0]

    def sample(self, core):
        s = real(self, core)
        if core != 0:
            return s
        seen[0] += 1
        return glitch(s) if seen[0] in reads else s

    monkeypatch.setattr(PerfCounters, "sample", sample)


# -- interval plausibility ---------------------------------------------------------


def test_interval_sanity_classification():
    policy = RetryPolicy()

    def sample(**kw):
        s = CounterSample()
        s.instructions = kw.pop("instructions", 100_000.0)
        s.cycles = kw.pop("cycles", 500_000.0)
        for k, v in kw.items():
            setattr(s, k, v)
        return s

    assert interval_sanity(sample(), 100_000.0, 600_000.0, policy) is None
    assert interval_sanity(sample(instructions=0.0), 100_000.0, 600_000.0, policy) == (
        "counters_dropped"
    )
    assert interval_sanity(sample(cycles=-5.0), 100_000.0, 600_000.0, policy) == (
        "counters_dropped"
    )
    assert interval_sanity(sample(l3_misses=-1.0), 100_000.0, 600_000.0, policy) == (
        "counters_corrupted"
    )
    # cycles wildly exceeding the interval's wall time
    assert interval_sanity(sample(cycles=5e7), 100_000.0, 600_000.0, policy) == (
        "counters_corrupted"
    )
    # instruction count far from what the harness ran
    assert interval_sanity(sample(instructions=5.0), 100_000.0, 600_000.0, policy) == (
        "counters_corrupted"
    )
    assert math.isfinite(sample().cpi)


# -- recovery ----------------------------------------------------------------------


def test_retry_engine_recovers_hot_points_without_degrading():
    sizes = [1.5, 2.0, 2.5, 3.0, 4.0, 6.0]
    kwargs = dict(
        interval_instructions=INTERVAL, n_intervals=1, warmup_instructions=WARMUP, seed=3,
    )
    plain = measure_curve_fixed(_settling_target, sizes, **kwargs)
    # without the engine the deep steals leave a hot Pirate: flagged, not fixed
    assert [p.valid for p in plain.points] == [False, False, False, True, True, True]

    curve = measure_curve_resilient(_settling_target, sizes, policy=_policy(), **kwargs)
    assert isinstance(curve, PartialCurve)
    assert curve.complete
    assert all(p.valid for p in curve.points)
    retried = [q for q in curve.quality.values() if q.attempts > 1]
    assert len(retried) == 3
    assert all(set(q.reasons) == {"pirate_hot"} for q in retried)
    assert not curve.degraded_points()

    # first-try points are the plain measurement, bit for bit
    for p_plain, p in zip(plain.points, curve.points):
        assert p.cache_bytes == p_plain.cache_bytes
        if p_plain.valid:
            assert p.cpi == p_plain.cpi
    # the recovered points continue the curve: CPI falls as the cache grows
    # (down to a plateau past the 3MB working set, flat within noise)
    cpis = [p.cpi for p in curve.points]
    assert all(b <= 1.01 * a for a, b in zip(cpis, cpis[1:]))
    assert min(cpis[:3]) > 1.2 * max(cpis[3:])


def test_unachievable_size_degrades_instead_of_raising():
    # random access over 1.5MB thrashes a Pirate trying to hold 7.5MB:
    # the 0.5MB point is genuinely unachievable and must land at the
    # nearest achievable size, recorded as a substitution
    curve = measure_curve_resilient(
        lambda: random_micro(1.5, seed=7), [0.5],
        interval_instructions=80_000.0, n_intervals=1,
        warmup_instructions=400_000.0, seed=3,
        policy=RetryPolicy(
            max_attempts=4, degrade_after_attempt=2,
            degrade_step_mb=1.0, max_degrade_mb=4.0,
        ),
    )
    assert isinstance(curve, PartialCurve)
    assert len(curve.points) == 1
    q = curve.quality_at(curve.points[0].cache_bytes)
    assert q is not None and q.degraded
    assert q.requested_mb == pytest.approx(0.5)
    assert q.measured_mb > q.requested_mb
    assert q.attempts > 1 and "pirate_hot" in q.reasons
    assert curve.degraded_points() == [q]
    assert not curve.complete
    assert f"sub<-{q.requested_mb:.1f}MB" in curve.format_table()


def test_strict_policy_raises_instead_of_degrading():
    factory = lambda: random_micro(1.5, seed=7)  # noqa: E731
    kwargs = dict(
        interval_instructions=80_000.0, n_intervals=1,
        warmup_instructions=400_000.0, seed=3,
    )
    with pytest.raises(RetryExhaustedError) as exc:
        measure_point_resilient(
            factory, int(7.5 * MB),
            policy=RetryPolicy(max_attempts=2, degrade_after_attempt=10**6, strict=True),
            **kwargs,
        )
    assert exc.value.attempts == 2
    assert "pirate_hot" in exc.value.reasons
    with pytest.raises(DegradedMeasurement):
        measure_point_resilient(
            factory, int(7.5 * MB),
            policy=RetryPolicy(
                max_attempts=4, degrade_after_attempt=2,
                degrade_step_mb=1.0, max_degrade_mb=4.0, strict=True,
            ),
            **kwargs,
        )


def _point(policy):
    return measure_point_resilient(
        random_micro(0.75, seed=7), 4 * MB,
        interval_instructions=INTERVAL, n_intervals=1,
        warmup_instructions=WARMUP, seed=3, policy=policy,
    )


def test_point_recovery_reports_attempts_and_reasons(monkeypatch):
    # the first attempt's interval reads come back empty
    _glitch_target_reads(monkeypatch, {1, 2}, lambda s: CounterSample())
    res, q = _point(_policy())
    assert q.valid and q.attempts == 2
    assert q.reasons == ["counters_dropped"]
    assert res.all_valid
    assert q.label == "retried"


def test_corrupted_counter_read_is_retried(monkeypatch):
    # the first attempt's closing read overstates cycles 25x
    _glitch_target_reads(
        monkeypatch, {2}, lambda s: replace(s, cycles=25.0 * s.cycles)
    )
    res, q = _point(_policy())
    assert q.valid and q.attempts == 2
    assert q.reasons == ["counters_corrupted"]
    assert res.all_valid


def test_partial_curve_rows_and_table():
    clean = measure_curve_resilient(
        lambda: random_micro(0.75, seed=7), [4.0],
        interval_instructions=INTERVAL, n_intervals=1,
        warmup_instructions=WARMUP, seed=3, policy=_policy(),
    )
    rows = clean.to_rows()
    assert rows[0]["attempts"] == 1
    assert rows[0]["quality"] == "ok"
    table = clean.format_table()
    assert "att" in table and "quality" in table


# -- the other harnesses route through the same engine -----------------------------


def test_dynamic_harness_retries_and_reports_quality():
    from repro.core.dynamic import measure_curve_dynamic

    # 2.8MB left beside a 3.5MB random working set: the Pirate runs hot on
    # the first visit and settles after one re-warm
    result = measure_curve_dynamic(
        random_micro(3.5, seed=7), [6.0, 2.8, 2.6, 2.4, 2.2],
        total_instructions=5e6,
        interval_instructions=200_000.0,
        seed=3,
        compute_baseline=False,
        retry_policy=RetryPolicy(max_attempts=4),
    )
    curve = result.curve
    assert isinstance(curve, PartialCurve)
    assert curve.quality
    assert all(q.valid for q in curve.quality.values())
    retried = [q for q in curve.quality.values() if q.attempts > 1]
    assert retried and all(set(q.reasons) == {"pirate_hot"} for q in retried)


def test_multitarget_harness_retries():
    from repro.core.multitarget import measure_multithreaded

    # two 1.5MB random Target threads against a 7MB steal: hot every time
    tel = Telemetry()
    res = measure_multithreaded(
        [lambda: random_micro(1.5, seed=1), lambda: random_micro(1.5, seed=2)],
        7 * MB,
        interval_instructions=20_000.0,
        warmup_instructions=60_000.0,
        seed=3,
        retry_policy=RetryPolicy(max_attempts=3),
        telemetry=tel,
    )
    assert res.attempts == 3
    assert not res.valid
    assert res.aggregate.instructions > 0
    escalations = [
        r["attrs"]["reasons"] for r in tel.spans.records
        if r["type"] == "event" and r["name"] == "retry_escalation"
    ]
    assert escalations == [["pirate_hot"], ["pirate_hot"]]
