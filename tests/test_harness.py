"""Fixed-size harness, dynamic adjustment, thread probe, attach API.

These tests run real (small) pirating measurements, so they use short
intervals; they check mechanism, not calibration.
"""

import pytest

from repro.errors import MeasurementError, SimulationError
from repro.units import MB
from repro.workloads import make_benchmark
from repro.workloads.micro import random_micro
from repro.core import (
    choose_pirate_threads,
    measure_between_markers,
    measure_curve_dynamic,
    measure_curve_fixed,
    measure_fixed_size,
)
from repro.core.dynamic import run_target_alone


def factory():
    return random_micro(3.0, seed=3)


def test_measure_fixed_size_basic():
    res = measure_fixed_size(
        factory, stolen_bytes=4 * MB, interval_instructions=150_000, n_intervals=2
    )
    assert res.target_cache_bytes == 4 * MB
    assert len(res.samples) == 2
    for s in res.samples:
        assert s.target.instructions == pytest.approx(150_000, rel=0.1)
        assert s.target.cpi > 0
        assert s.wall_cycles > 0
    assert res.wall_cycles > sum(s.wall_cycles for s in res.samples)


def test_fixed_size_shows_capacity_effect():
    small = measure_fixed_size(
        factory, stolen_bytes=6 * MB, interval_instructions=200_000, n_intervals=1
    )
    large = measure_fixed_size(
        factory, stolen_bytes=0, interval_instructions=200_000, n_intervals=1
    )
    fr_small = small.samples[0].target.fetch_ratio
    fr_large = large.samples[0].target.fetch_ratio
    assert fr_small > fr_large  # 3MB working set vs 2MB / 8MB available


def test_fixed_size_validation():
    with pytest.raises(MeasurementError):
        measure_fixed_size(factory, stolen_bytes=9 * MB)
    with pytest.raises(MeasurementError):
        measure_fixed_size(factory, stolen_bytes=0, num_pirate_threads=4)


def test_unreachable_interval_raises_instead_of_hanging():
    # the unreachable run goal is refused when built instead of run forever
    with pytest.raises(SimulationError, match="finite"):
        measure_fixed_size(factory, stolen_bytes=MB, interval_instructions=float("inf"))
    with pytest.raises(SimulationError, match="finite"):
        choose_pirate_threads(factory, max_threads=1, probe_instructions=float("inf"))


def test_workload_instance_is_reset():
    wl = random_micro(2.0, seed=4)
    r1 = measure_fixed_size(wl, 0, interval_instructions=50_000, n_intervals=1)
    r2 = measure_fixed_size(wl, 0, interval_instructions=50_000, n_intervals=1)
    assert r1.samples[0].target.l3_fetches == r2.samples[0].target.l3_fetches


def test_measure_curve_fixed():
    curve = measure_curve_fixed(
        factory,
        [8.0, 2.0],
        interval_instructions=150_000,
        n_intervals=1,
    )
    assert list(curve.cache_mb) == [2.0, 8.0]
    assert curve.fetch_ratio[0] > curve.fetch_ratio[1]


def test_measure_curve_fixed_requires_factory():
    with pytest.raises(MeasurementError):
        measure_curve_fixed(random_micro(2.0), [8.0])


def test_measure_curve_fixed_instantiates_one_target_per_size():
    # the benchmark name is resolved once up front, not by building a
    # throwaway target per sweep size
    calls = 0

    def counting_factory():
        nonlocal calls
        calls += 1
        return random_micro(1.0, seed=3)

    measure_curve_fixed(
        counting_factory, [8.0, 4.0], interval_instructions=60_000, n_intervals=1
    )
    assert calls == 3  # one for the name + one per size

    calls = 0
    measure_curve_fixed(
        counting_factory, [8.0, 4.0],
        benchmark="named", interval_instructions=60_000, n_intervals=1,
    )
    assert calls == 2  # explicit name: exactly one per size


# ------------------------------------------------------------------ dynamic


def test_dynamic_covers_all_sizes_and_accounts_overhead():
    res = measure_curve_dynamic(
        factory,
        [8.0, 4.0, 2.0],
        total_instructions=3_000_000,
        interval_instructions=150_000,
    )
    assert set(res.curve.cache_mb) == {2.0, 4.0, 8.0}
    assert res.instructions == pytest.approx(3_000_000, rel=0.05)
    assert res.wall_cycles > res.baseline_cycles > 0
    assert res.overhead > 0
    assert res.measurement_cycles_completed >= 1


def test_dynamic_sawtooth_schedule():
    res = measure_curve_dynamic(
        factory,
        [8.0, 2.0],
        total_instructions=1_500_000,
        interval_instructions=150_000,
        schedule="sawtooth",
        compute_baseline=False,
    )
    assert set(res.curve.cache_mb) == {2.0, 8.0}


def test_dynamic_validation():
    with pytest.raises(MeasurementError):
        measure_curve_dynamic(factory, [], total_instructions=1e6)
    with pytest.raises(MeasurementError):
        measure_curve_dynamic(
            factory, [16.0], total_instructions=1e6
        )
    with pytest.raises(MeasurementError):
        measure_curve_dynamic(
            factory, [8.0], total_instructions=1e6, schedule="spiral"
        )


def test_run_target_alone_baseline():
    cycles = run_target_alone(factory, 500_000)
    assert cycles > 500_000  # CPI > 1 for this workload


@pytest.mark.parametrize("total", [float("nan"), float("inf"), 0, -5.0])
def test_unfinishable_total_is_refused_up_front(total):
    # NaN never compares as reached and inf is never reached, so both
    # harnesses would run forever; 0 and -5 would fail late, after a
    # measurement attempt, with "no interval samples"
    with pytest.raises(MeasurementError, match="total_instructions must be a finite"):
        run_target_alone(factory, total)
    with pytest.raises(MeasurementError, match="total_instructions must be a finite"):
        measure_curve_dynamic(
            factory, [8.0, 4.0], total_instructions=total, interval_instructions=50_000
        )


def test_dynamic_capacity_trend_matches_fixed():
    """Dynamic and fixed measurements must agree on the direction."""
    res = measure_curve_dynamic(
        factory,
        [8.0, 2.0],
        total_instructions=3_000_000,
        interval_instructions=200_000,
        compute_baseline=False,
    )
    fr = dict(zip(res.curve.cache_mb, res.curve.fetch_ratio))
    assert fr[2.0] > fr[8.0]


# ------------------------------------------------------------------ probe


def test_choose_pirate_threads_returns_probe_data():
    probe = choose_pirate_threads(
        factory, max_threads=2, probe_instructions=120_000
    )
    assert probe.threads in (1, 2)
    assert set(probe.cpi_by_threads) == {1, 2}
    assert probe.slowdown(2) == pytest.approx(
        (probe.cpi_by_threads[2] - probe.cpi_by_threads[1]) / probe.cpi_by_threads[1]
    )


def test_choose_pirate_threads_validation():
    with pytest.raises(MeasurementError):
        choose_pirate_threads(factory, max_threads=0)
    with pytest.raises(MeasurementError):
        choose_pirate_threads(factory, max_threads=4)
    probe = choose_pirate_threads(factory, max_threads=1, probe_instructions=60_000)
    assert probe.threads == 1


def test_probe_slowdown_requires_data():
    probe = choose_pirate_threads(factory, max_threads=1, probe_instructions=60_000)
    with pytest.raises(MeasurementError):
        probe.slowdown(2)


# ------------------------------------------------------------------ attach


def test_measure_between_markers():
    win = measure_between_markers(
        factory, stolen_bytes=4 * MB, start_marker=200_000, stop_marker=500_000
    )
    assert win.target.instructions == pytest.approx(300_000, rel=0.05)
    assert win.target_cache_bytes == 4 * MB
    assert 0.0 <= win.pirate_fetch_ratio < 1.0


def test_attach_marker_validation():
    with pytest.raises(MeasurementError):
        measure_between_markers(factory, 0, start_marker=100, stop_marker=100)
    with pytest.raises(MeasurementError):
        measure_between_markers(factory, 0, start_marker=-1, stop_marker=100)


def test_attach_window_excludes_preamble():
    """Counters must cover only the marked window, not the fast-forward."""
    win = measure_between_markers(
        lambda: make_benchmark("povray", seed=2),
        stolen_bytes=0,
        start_marker=400_000,
        stop_marker=600_000,
    )
    assert win.target.instructions == pytest.approx(200_000, rel=0.05)
