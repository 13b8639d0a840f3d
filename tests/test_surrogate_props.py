"""Metamorphic properties of the analytic surrogate engine.

The surrogate has no ground truth of its own — its credibility comes from
invariants any miss-ratio predictor must satisfy on *every* input:
monotonicity in capacity, exact agreement with the reuse-distance
histogram it was built from, and recovery of the solo curve when the
Pirate steals nothing.
The vectorized reuse-distance kernel is pinned against the scalar Fenwick
reference the same way the simulation kernels are.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reuse import (
    miss_ratio_from_histogram,
    reuse_distances,
    reuse_distances_scalar,
    reuse_profile,
)
from repro.config import CacheConfig, MachineConfig, nehalem_config
from repro.core.parallel import SweepSpec, run_sweep
from repro.errors import TraceError
from repro.surrogate import (
    SurrogateModel,
    SurrogatePolicy,
    build_surrogate_model,
    che_miss_fraction,
)
from repro.tracing.trace import AddressTrace
from repro.units import MB
from repro.workloads import TargetSpec

lines_lists = st.lists(st.integers(0, 40), min_size=2, max_size=300)


def trace_of(lines, apl=1.0):
    return AddressTrace("prop", np.asarray(lines, dtype=np.int64), accesses_per_line=apl)


# -- vectorized kernel == scalar reference ----------------------------------------


@settings(max_examples=80, deadline=None)
@given(lines=lines_lists)
def test_vectorized_reuse_distances_match_scalar(lines):
    arr = np.asarray(lines, dtype=np.int64)
    assert np.array_equal(reuse_distances(arr), reuse_distances_scalar(arr))


def test_vectorized_reuse_distances_match_scalar_large_random():
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 500, size=5000)
    assert np.array_equal(reuse_distances(arr), reuse_distances_scalar(arr))


# -- monotonicity in capacity ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(lines=lines_lists, skip=st.sampled_from([0.0, 0.25]))
def test_predicted_miss_ratio_monotone_in_capacity(lines, skip):
    """More cache never hurts: the predicted curve is non-increasing."""
    prof = reuse_profile(trace_of(lines), skip_fraction=skip)
    model = SurrogateModel(prof, nehalem_config(prefetch_enabled=False))
    ratios = [model.predict_lines(c).miss_ratio for c in range(0, 50)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


@settings(max_examples=40, deadline=None)
@given(lines=lines_lists)
def test_che_miss_fraction_monotone_with_exact_limits(lines):
    counts = np.unique(np.asarray(lines, dtype=np.int64), return_counts=True)[1]
    total = len(lines)
    fracs = [che_miss_fraction(counts, total, c) for c in range(0, counts.size + 2)]
    assert fracs[0] == 1.0  # no cache: every access evicted before reuse
    assert fracs[-1] == 0.0  # whole footprint resident: no warm miss
    assert all(a >= b - 1e-12 for a, b in zip(fracs, fracs[1:]))
    assert all(0.0 <= f <= 1.0 for f in fracs)


# -- exactness against the histogram ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(lines=lines_lists, cap=st.integers(0, 64))
def test_prediction_matches_histogram_tail_exactly(lines, cap):
    """The surrogate's prediction IS the Mattson tail — bit-for-bit, not
    approximately: any rescaling detour would break this under IEEE."""
    prof = reuse_profile(trace_of(lines), skip_fraction=0.0)
    model = SurrogateModel(prof, nehalem_config())
    expected = miss_ratio_from_histogram(
        prof.distances, prof.cold_accesses, prof.total_accesses, cap
    )
    assert model.predict_lines(cap).miss_ratio == expected


def fully_assoc_config(num_lines=64):
    """A machine whose shared L3 is one set holding every line."""
    return MachineConfig(
        num_cores=2,
        l1=CacheConfig("L1", 2 * 64 * 2, 2, policy="plru"),
        l2=CacheConfig("L2", 4 * 64 * 2, 2, policy="plru"),
        l3=CacheConfig("L3", num_lines * 64, num_lines, policy="lru",
                       inclusive=True, shared=True),
        prefetch_enabled=False,
    )


@settings(max_examples=40, deadline=None)
@given(lines=lines_lists, cap=st.integers(0, 64))
def test_fully_associative_cross_check_is_the_stack_value(lines, cap):
    """num_sets == 1 degenerates the Poisson cross-check to the exact tail,
    so the error estimate's associativity term vanishes — bit-for-bit."""
    prof = reuse_profile(trace_of(lines), skip_fraction=0.0)
    cfg = fully_assoc_config()
    assert cfg.l3.num_sets == 1
    pred = SurrogateModel(prof, cfg).predict_lines(cap)
    stack = prof.miss_ratio_at_lines(cap)
    assert pred.assoc_miss_ratio == stack
    assert pred.stack_miss_ratio == stack
    assert pred.miss_ratio == stack


# -- idle pirate: S -> 0 recovers the solo curve -----------------------------------


def test_idle_pirate_recovers_solo_curve():
    rng = np.random.default_rng(11)
    prof = reuse_profile(trace_of(rng.integers(0, 1000, size=8000)), skip_fraction=0.25)
    cfg = nehalem_config()
    model = SurrogateModel(prof, cfg)
    solo = prof.miss_ratio_at_lines(cfg.l3.num_lines)
    # stealing nothing is the solo run, exactly
    assert model.predict_bytes(cfg.l3.size).miss_ratio == solo
    # and any stolen amount can only make it worse
    for stolen_mb in (1, 2, 4, 7):
        assert model.predict_bytes(cfg.l3.size - stolen_mb * MB).miss_ratio >= solo


def test_surrogate_sweep_full_cache_point_is_the_model_solo_prediction():
    cfg = nehalem_config()
    spec = SweepSpec(
        target=TargetSpec(kind="micro.random", working_set_mb=1.0, seed=3),
        benchmark="micro.random",
        config=cfg,
        seed=5,
    )
    policy = SurrogatePolicy()
    results, stats = run_sweep(
        spec, [cfg.l3.size / MB], engine="surrogate", surrogate=policy
    )
    assert stats.measured == 1
    (point,) = results
    assert point.stolen_bytes == 0
    pred = build_surrogate_model(spec, policy).predict_bytes(cfg.l3.size)
    sample = point.samples[0]
    mem = sample.target.mem_accesses
    assert sample.target.l3_fetches == round(pred.miss_ratio * mem)


# -- the profile carries Che's input for its own window ----------------------------


@settings(max_examples=40, deadline=None)
@given(lines=lines_lists, skip=st.sampled_from([0.0, 0.25, 0.5]))
def test_profile_line_counts_cover_the_histogram_window(lines, skip):
    prof = reuse_profile(trace_of(lines), skip_fraction=skip)
    window = np.asarray(lines[int(len(lines) * skip):], dtype=np.int64)
    assert np.array_equal(prof.line_counts, np.unique(window, return_counts=True)[1])
    assert prof.line_counts.sum() == prof.total_accesses
    # every access of the window is warm or cold, and each distinct line
    # of the window is first touched there at most once
    assert prof.distances.size + prof.cold_accesses == prof.total_accesses
    assert prof.cold_accesses <= prof.line_counts.size


# -- degenerate capacities (regression: exact limits, clean errors) ----------------


class TestDegenerateCapacities:
    distances = np.array([0, 1, 3, 7], dtype=np.int64)

    def test_negative_capacity_raises_trace_error(self):
        with pytest.raises(TraceError, match="capacity must be non-negative"):
            miss_ratio_from_histogram(self.distances, 2, 6, -1)

    def test_zero_capacity_misses_everything(self):
        assert miss_ratio_from_histogram(self.distances, 2, 6, 0) == 1.0

    def test_capacity_beyond_footprint_leaves_only_cold_misses(self):
        assert miss_ratio_from_histogram(self.distances, 2, 6, 10**9) == 2 / 6
        assert miss_ratio_from_histogram(self.distances, 0, 4, 10**9) == 0.0

    def test_empty_histogram_still_validates_capacity(self):
        empty = np.empty(0, dtype=np.int64)
        assert miss_ratio_from_histogram(empty, 3, 3, 5) == 1.0
        with pytest.raises(TraceError, match="capacity must be non-negative"):
            miss_ratio_from_histogram(empty, 3, 3, -2)

    def test_no_accesses_raises(self):
        with pytest.raises(TraceError, match="histogram covers no accesses"):
            miss_ratio_from_histogram(self.distances, 0, 0, 4)

    def test_profile_negative_capacity_raises_even_when_empty(self):
        prof = reuse_profile(trace_of([1, 1, 1]), skip_fraction=0.0)
        with pytest.raises(TraceError, match="capacity must be non-negative"):
            prof.miss_ratio_at_lines(-1)
