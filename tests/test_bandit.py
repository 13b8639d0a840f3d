"""The Bandwidth Bandit extension (future work of the paper's conclusion)."""

import numpy as np
import pytest

from repro.config import nehalem_config
from repro.core.bandit import (
    Bandit,
    BanditWorkload,
    measure_bandwidth_curve,
)
from repro.errors import ConfigError, MeasurementError
from repro.hardware.machine import Goal, Machine
from repro.workloads import make_benchmark
from repro.workloads.micro import random_micro


def test_bandit_workload_confined_to_set_band():
    wl = BanditWorkload(sets_used=64, l3_sets=8192)
    lines, writes = wl.chunk(10_000)
    assert writes is None
    sets = np.unique(lines % 8192)
    assert len(sets) == 64


def test_bandit_workload_never_reuses_lines():
    wl = BanditWorkload(sets_used=16, l3_sets=8192)
    a = wl.chunk(5_000)[0]
    b = wl.chunk(5_000)[0]
    all_lines = np.concatenate([a, b])
    assert len(np.unique(all_lines)) == len(all_lines)


def test_bandit_gap_controls_intensity():
    wl = BanditWorkload(gap_cycles=5.0)
    assert wl.gap_cycles == 5.0
    wl.set_gap(0.0)
    assert wl.gap_cycles == 0.1  # floored
    with pytest.raises(ConfigError):
        BanditWorkload(sets_used=0)
    with pytest.raises(ConfigError):
        BanditWorkload(sets_used=10_000, l3_sets=8192)


def test_bandit_validation():
    m = Machine(nehalem_config())
    with pytest.raises(ConfigError):
        Bandit(m, [])
    with pytest.raises(ConfigError):
        Bandit(m, [1, 1])
    with pytest.raises(MeasurementError):
        measure_bandwidth_curve(lambda: random_micro(1.0), [], num_bandit_threads=1)
    with pytest.raises(MeasurementError):
        measure_bandwidth_curve(lambda: random_micro(1.0), [2.0], num_bandit_threads=4)


def test_bandit_cache_pollution_bounded():
    m = Machine(nehalem_config())
    b = Bandit(m, [1], sets_used=32)
    b.set_gap(0.5)
    m.run(Goal(b.threads, [25_000] * len(b.threads)))
    # every bandit-resident L3 line sits in the 32-set band
    band = {wl_set for wl_set in range(0, 8192, 8192 // 32)}
    from repro.core.bandit import BANDIT_BASE

    bandit_lines = [
        line for line in m.hierarchy.l3.resident_lines() if line >= BANDIT_BASE
    ]
    assert bandit_lines  # it did stream through the cache
    assert {line % 8192 for line in bandit_lines} <= band
    assert len(bandit_lines) <= b.cache_pollution_lines()


def test_bandit_achieved_bandwidth_monotone_in_gap():
    def achieved(gap):
        m = Machine(nehalem_config())
        b = Bandit(m, [1])
        b.set_gap(gap)
        before = b.sample()
        m.run(Goal(b.threads, [t.instructions + 10_000 for t in b.threads]))
        return b.achieved_bandwidth_gbps(before)

    fast = achieved(0.5)
    slow = achieved(30.0)
    assert fast > slow > 0.0
    assert fast < 10.4 * 1.6  # bounded near the DRAM capacity


def test_bandwidth_curve_for_bandwidth_hungry_target():
    """A streaming target must slow down as available bandwidth shrinks."""
    curve = measure_bandwidth_curve(
        lambda: make_benchmark("libquantum", seed=2),
        gaps_cycles=[40.0, 1.0],
        interval_instructions=300_000,
        warmup_instructions=200_000,
    )
    assert len(curve.points) == 2
    starved, plenty = curve.points[0], curve.points[-1]
    assert starved.available_bandwidth_gbps < plenty.available_bandwidth_gbps
    assert starved.target_cpi > plenty.target_cpi * 1.05
    assert "libquantum" in curve.format_table()


def test_bandwidth_curve_insensitive_target():
    """A cache-resident target barely notices the Bandit."""
    curve = measure_bandwidth_curve(
        lambda: make_benchmark("povray", seed=2),
        gaps_cycles=[40.0, 1.0],
        interval_instructions=300_000,
        warmup_instructions=200_000,
    )
    cpis = [p.target_cpi for p in curve.points]
    assert max(cpis) / min(cpis) < 1.10


def test_bandit_curve_interpolation():
    curve = measure_bandwidth_curve(
        lambda: make_benchmark("povray", seed=2),
        gaps_cycles=[20.0],
        interval_instructions=150_000,
        warmup_instructions=100_000,
    )
    p = curve.points[0]
    assert curve.cpi_at(p.available_bandwidth_gbps) == pytest.approx(p.target_cpi)
