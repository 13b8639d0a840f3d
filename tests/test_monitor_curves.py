"""Pirate monitor and performance-curve containers."""

import pytest

from repro.config import nehalem_config
from repro.errors import MeasurementError
from repro.hardware.counters import CounterSample
from repro.hardware.machine import Goal, Machine
from repro.core.curves import IntervalSample, PerformanceCurve
from repro.core.monitor import DEFAULT_FETCH_RATIO_THRESHOLD, PirateMonitor, MonitorVerdict
from repro.core.pirate import Pirate
from repro.units import MB


# ----------------------------------------------------------------- monitor


def test_default_threshold_is_papers_3_percent():
    assert DEFAULT_FETCH_RATIO_THRESHOLD == 0.03


def test_verdict_semantics():
    v = MonitorVerdict(fetch_ratio=0.02, threshold=0.03)
    assert v.trustworthy
    assert v.resident_fraction_lower_bound == pytest.approx(0.98)
    v2 = MonitorVerdict(fetch_ratio=0.05, threshold=0.03)
    assert not v2.trustworthy


def test_monitor_brackets_intervals():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    p.set_working_set(1 * MB)
    p.warm_full()
    mon = PirateMonitor(p)
    mon.begin()
    m.run_only(p.threads, Goal(p.threads, [t.instructions + 40_000 for t in p.threads]))
    v = mon.end()
    assert v.trustworthy
    assert v.fetch_ratio == pytest.approx(0.0, abs=1e-4)


def test_monitor_end_without_begin():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    mon = PirateMonitor(p)
    with pytest.raises(MeasurementError):
        mon.end()


def test_monitor_threshold_validation():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    with pytest.raises(MeasurementError):
        PirateMonitor(p, threshold=1.5)


def test_verdict_at_threshold_boundary_is_trustworthy():
    # the §III-B2 rule is "fetch ratio <= threshold", inclusive
    v = MonitorVerdict(fetch_ratio=0.03, threshold=0.03)
    assert v.trustworthy
    v_above = MonitorVerdict(fetch_ratio=0.03 + 1e-12, threshold=0.03)
    assert not v_above.trustworthy


def test_verdict_with_zero_threshold():
    # threshold=0 demands a perfectly resident Pirate: only a 0.0 fetch
    # ratio passes, and the resident-fraction bound stays exact
    assert MonitorVerdict(fetch_ratio=0.0, threshold=0.0).trustworthy
    v = MonitorVerdict(fetch_ratio=1e-9, threshold=0.0)
    assert not v.trustworthy
    assert v.resident_fraction_lower_bound == pytest.approx(1.0)


# ----------------------------------------------------------------- curves


def sample(mb, cpi=2.0, fr=0.05, pirate_fr=0.0, valid=True, instr=1000.0):
    c = CounterSample(
        cycles=cpi * instr,
        instructions=instr,
        mem_accesses=instr * 0.4,
        l3_fetches=int(instr * 0.4 * fr),
        l3_misses=int(instr * 0.4 * fr * 0.8),
        dram_bytes=instr * 0.4 * fr * 64,
    )
    return IntervalSample(
        target_cache_bytes=int(mb * MB),
        target=c,
        pirate_fetch_ratio=pirate_fr,
        valid=valid,
    )


def test_from_samples_aggregates_by_size():
    samples = [sample(2.0, cpi=2.0), sample(2.0, cpi=4.0), sample(8.0, cpi=1.0)]
    curve = PerformanceCurve.from_samples("t", samples, 2.26e9)
    assert len(curve.points) == 2
    p2 = [p for p in curve.points if p.cache_mb == 2.0][0]
    assert p2.cpi == pytest.approx(3.0)  # instruction-weighted (equal here)
    assert p2.intervals == 2


def test_points_sorted_by_size():
    curve = PerformanceCurve.from_samples(
        "t", [sample(8.0), sample(0.5), sample(2.0)], 2.26e9
    )
    assert list(curve.cache_mb) == [0.5, 2.0, 8.0]


def test_validity_requires_all_intervals_valid():
    curve = PerformanceCurve.from_samples(
        "t", [sample(2.0, valid=True), sample(2.0, valid=False)], 2.26e9
    )
    assert not curve.points[0].valid
    assert curve.valid_points() == []


def test_mixed_validity_aggregation_keeps_every_point():
    # one poisoned size must not hide the healthy ones — and must itself
    # survive as a visible valid=False point rather than being dropped
    samples = [
        sample(2.0, cpi=3.0, valid=True),
        sample(4.0, cpi=2.0, valid=False, pirate_fr=0.08),
        sample(8.0, cpi=1.0, valid=True),
    ]
    curve = PerformanceCurve.from_samples("t", samples, 2.26e9)
    assert len(curve.points) == 3
    valid = curve.valid_points()
    assert [p.cache_mb for p in valid] == [2.0, 8.0]
    bad = [p for p in curve.points if not p.valid][0]
    assert bad.cache_mb == 4.0
    assert bad.pirate_fetch_ratio == pytest.approx(0.08)


def test_fixed_size_result_all_valid():
    from repro.core.harness import FixedSizeResult

    r = FixedSizeResult(target_cache_bytes=4 * MB, stolen_bytes=4 * MB)
    assert r.all_valid  # vacuously true with no samples
    r.samples.append(sample(4.0, valid=True))
    assert r.all_valid
    r.samples.append(sample(4.0, valid=False))
    assert not r.all_valid


def test_interpolation():
    curve = PerformanceCurve.from_samples(
        "t", [sample(2.0, cpi=3.0), sample(4.0, cpi=1.0)], 2.26e9
    )
    assert curve.cpi_at(3.0) == pytest.approx(2.0)
    assert curve.cpi_at(2.0) == pytest.approx(3.0)
    # clamped outside the grid
    assert curve.cpi_at(8.0) == pytest.approx(1.0)


def test_fetch_and_bandwidth_views():
    curve = PerformanceCurve.from_samples("t", [sample(2.0, fr=0.1)], 2.26e9)
    assert curve.fetch_ratio[0] == pytest.approx(0.1, rel=0.05)
    assert curve.bandwidth_gbps[0] > 0
    assert curve.fetch_ratio_at(2.0) == pytest.approx(curve.fetch_ratio[0])
    assert curve.bandwidth_at(2.0) == pytest.approx(curve.bandwidth_gbps[0])


def test_empty_samples_rejected():
    with pytest.raises(MeasurementError):
        PerformanceCurve.from_samples("t", [], 2.26e9)


def test_drop_first_interval_per_size():
    samples = [sample(2.0, cpi=10.0), sample(2.0, cpi=2.0), sample(2.0, cpi=2.0)]
    curve = PerformanceCurve.from_samples(
        "t", samples, 2.26e9, drop_first_interval_per_size=True
    )
    assert curve.points[0].cpi == pytest.approx(2.0)
    assert curve.points[0].intervals == 2


def test_format_table_and_rows():
    curve = PerformanceCurve.from_samples("bench", [sample(2.0), sample(8.0)], 2.26e9)
    text = curve.format_table()
    assert "bench" in text and "2.0" in text and "8.0" in text
    rows = curve.to_rows()
    assert len(rows) == 2
    assert set(rows[0]) >= {"cache_mb", "cpi", "bandwidth_gbps", "fetch_ratio", "valid"}
