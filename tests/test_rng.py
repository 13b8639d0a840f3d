"""Deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.rng import DEFAULT_SEED, make_rng, spawn, stable_seed


def test_make_rng_is_deterministic():
    a = make_rng(42).integers(0, 1 << 30, size=16)
    b = make_rng(42).integers(0, 1 << 30, size=16)
    assert np.array_equal(a, b)


def test_make_rng_none_uses_default_seed():
    a = make_rng(None).integers(0, 1 << 30, size=4)
    b = make_rng(DEFAULT_SEED).integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b)


def test_make_rng_passthrough_generator():
    g = np.random.default_rng(7)
    assert make_rng(g) is g


def test_spawn_children_are_independent_and_reproducible():
    kids1 = spawn(make_rng(1), 3)
    kids2 = spawn(make_rng(1), 3)
    draws1 = [g.integers(0, 1000, size=8) for g in kids1]
    draws2 = [g.integers(0, 1000, size=8) for g in kids2]
    for d1, d2 in zip(draws1, draws2):
        assert np.array_equal(d1, d2)
    # children differ from each other
    assert not np.array_equal(draws1[0], draws1[1])


def test_spawn_rejects_negative():
    with pytest.raises(ValueError):
        spawn(make_rng(0), -1)


def test_stable_seed_depends_on_all_parts():
    s1 = stable_seed("fig6", "mcf", 4)
    s2 = stable_seed("fig6", "mcf", 5)
    s3 = stable_seed("fig6", "lbm", 4)
    assert s1 != s2 != s3
    assert stable_seed("fig6", "mcf", 4) == s1
    assert 0 <= s1 < 2**63

