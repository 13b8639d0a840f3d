"""Primitive address patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.rng import make_rng
from repro.workloads.patterns import (
    PointerChasePattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
)


def test_sequential_wraps():
    p = SequentialPattern(100, 8)
    out = p.lines(10)
    assert out.tolist() == [100, 101, 102, 103, 104, 105, 106, 107, 100, 101]


def test_sequential_state_persists_across_chunks():
    p = SequentialPattern(0, 100)
    a = p.lines(30)
    b = p.lines(30)
    assert b[0] == a[-1] + 1


def test_sequential_segmented_runs_are_unit_stride():
    p = SequentialPattern(0, 1024, segment_lines=16, seed=1)
    out = p.lines(160)
    diffs = np.diff(out)
    # within segments the stride is +1; jumps happen at segment boundaries
    unit = np.sum(diffs == 1)
    assert unit >= 160 - 160 // 16 - 1 - 10
    # all addresses stay in the region
    assert out.min() >= 0 and out.max() < 1024


def test_sequential_segment_jump_alignment():
    p = SequentialPattern(0, 1024, segment_lines=64, seed=2)
    p.lines(64)  # consume the first segment
    nxt = p.lines(1)[0]
    assert nxt % 64 == 0  # jumps land on segment boundaries


def test_sequential_segment_validation():
    with pytest.raises(ConfigError):
        SequentialPattern(0, 16, segment_lines=0)
    with pytest.raises(ConfigError):
        SequentialPattern(0, 16, segment_lines=17)


def test_random_within_region_and_deterministic():
    p1 = RandomPattern(1000, 64, seed=5)
    p2 = RandomPattern(1000, 64, seed=5)
    a, b = p1.lines(500), p2.lines(500)
    assert np.array_equal(a, b)
    assert a.min() >= 1000 and a.max() < 1064


def test_random_covers_region():
    p = RandomPattern(0, 32, seed=0)
    seen = set(p.lines(2000).tolist())
    assert seen == set(range(32))


def test_strided():
    p = StridedPattern(0, 10, stride_lines=3)
    out = p.lines(5)
    assert out.tolist() == [0, 3, 6, 9, 2]


def test_strided_footprint_gcd():
    # stride 2 over an even region only touches half the lines
    p = StridedPattern(0, 10, stride_lines=2)
    assert p.footprint_lines() == 5
    assert set(p.lines(100).tolist()) == {0, 2, 4, 6, 8}


def test_pointer_chase_visits_every_line_once_per_lap():
    p = PointerChasePattern(50, 16, seed=3)
    lap = p.lines(16)
    assert sorted(lap.tolist()) == list(range(50, 66))
    lap2 = p.lines(16)
    assert np.array_equal(lap, lap2)  # same cycle every lap


def test_pointer_chase_not_sequential():
    p = PointerChasePattern(0, 256, seed=4)
    out = p.lines(256)
    diffs = np.diff(out)
    assert np.sum(diffs == 1) < 30  # de-correlated

def test_reset_restores_initial_stream():
    for p in (
        SequentialPattern(0, 100, segment_lines=10, seed=7),
        RandomPattern(0, 100, seed=7),
        StridedPattern(0, 100, stride_lines=3, seed=7),
        PointerChasePattern(0, 100, seed=7),
    ):
        a = p.lines(50)
        p.reset()
        b = p.lines(50)
        assert np.array_equal(a, b), type(p).__name__


def test_pointer_chase_order_is_the_seeded_permutation():
    p = PointerChasePattern(0, 300, seed=21)
    assert np.array_equal(p._order, make_rng(21).permutation(300))
    assert p._order.dtype == np.int64
    order = p._order
    p.lines(123)
    p.reset()
    assert p._order is order
    assert np.array_equal(p.lines(300), make_rng(21).permutation(300))


def test_pointer_chase_order_is_shared_and_read_only():
    a = PointerChasePattern(0, 300, seed=22)
    b = PointerChasePattern(1000, 300, seed=22)
    assert a._order is b._order
    with pytest.raises(ValueError):
        a._order[0] = 1
    assert not np.array_equal(a._order, PointerChasePattern(0, 300, seed=23)._order)


def test_pointer_chase_generator_seed_is_consumed():
    """A Generator seed draws the order from it, at build and every reset."""
    gen = np.random.default_rng(5)
    twin = np.random.default_rng(5)
    p = PointerChasePattern(10, 200, seed=gen)
    assert np.array_equal(p.lines(200), twin.permutation(200) + 10)
    assert gen.bit_generator.state == twin.bit_generator.state
    p.reset()
    assert np.array_equal(p.lines(200), twin.permutation(200) + 10)
    assert gen.bit_generator.state == twin.bit_generator.state


def test_pattern_validation():
    with pytest.raises(ConfigError):
        RandomPattern(0, 0)
    with pytest.raises(ConfigError):
        RandomPattern(-1, 10)
    with pytest.raises(ConfigError):
        StridedPattern(0, 10, stride_lines=0)


@settings(max_examples=30, deadline=None)
@given(
    region=st.integers(min_value=1, max_value=500),
    n=st.integers(min_value=1, max_value=400),
    base=st.integers(min_value=0, max_value=1 << 40),
)
def test_all_patterns_stay_in_region_property(region, n, base):
    for p in (
        SequentialPattern(base, region, seed=0),
        RandomPattern(base, region, seed=0),
        PointerChasePattern(base, region, seed=0),
    ):
        out = p.lines(n)
        assert len(out) == n
        assert out.min() >= base
        assert out.max() < base + region
