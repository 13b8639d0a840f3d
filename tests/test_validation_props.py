"""Metamorphic properties of the validation layer (hypothesis-driven).

These run under the derandomized ``repro`` profile from ``conftest.py``;
export ``HYPOTHESIS_SEED=<int>`` to draw fresh examples while keeping any
failure replayable with the same seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.core.attach import AttachWindow, measure_between_markers
from repro.core.curves import IntervalSample, PerformanceCurve
from repro.rng import stable_seed
from repro.units import MB
from repro.validation import (
    ValidationTier,
    differential_compare,
    lru_stack_mismatches,
    monotone_violations,
    pirate_idle_fetch_ratio,
    reports_equivalent,
    validate_suite,
)
from repro.workloads import ZOO_NAMES, benchmark_target, zoo_target
from tests.golden_scenarios import GOLDEN_TIER, conformance_scenario

#: line-address streams confined to a small region so sets actually collide
streams = st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=400)


# ------------------------------------------------------ LRU stack inclusion


@given(addrs=streams, ways=st.integers(min_value=1, max_value=16),
       set_bits=st.integers(min_value=0, max_value=3))
def test_lru_simulator_is_a_stack_algorithm(addrs, ways, set_bits):
    """Fig. 3 generalised: the LRU cache == the top-``ways`` of the stack."""
    assert lru_stack_mismatches(addrs, ways, num_sets=1 << set_bits) == []


@given(addrs=streams, set_bits=st.integers(min_value=0, max_value=3))
def test_lru_misses_monotone_nonincreasing_in_ways(addrs, set_bits):
    """More ways (bigger cache at the same sets) never miss more under LRU."""
    assert monotone_violations(
        addrs, [1, 2, 3, 4, 6, 8, 16], num_sets=1 << set_bits
    ) == []


@given(addrs=streams)
def test_stack_inclusion_implies_per_prefix_monotonicity(addrs):
    """Misses at w+1 ways never exceed misses at w, for every adjacent pair."""
    assert monotone_violations(addrs, list(range(1, 9))) == []


def test_known_non_stack_sequence_still_monotone_under_lru():
    # the classic Belady-anomaly FIFO sequence; LRU must stay anomaly-free
    seq = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
    assert monotone_violations(seq, [3, 4]) == []


# ------------------------------------------------------- vanishing theft


# an idle Pirate spins on one line; the only fetches it can incur are the
# cold fill of that line plus re-fetches after the Target evicts it, so
# its ratio must sit orders of magnitude below the 3% trust threshold
IDLE_RESIDUAL = 1e-3


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=5)
def test_pirate_stealing_nothing_fetches_almost_nothing(seed):
    """S -> 0 limit: only the spin line's cold fill remains, any seed."""
    factory = benchmark_target("povray", seed=seed)
    assert pirate_idle_fetch_ratio(factory, 5_000, 45_000, seed=seed) < IDLE_RESIDUAL


@pytest.mark.parametrize("name", ["gromacs", "libquantum", "mcf"])
def test_idle_pirate_fetch_ratio_negligible_across_workload_kinds(name):
    factory = benchmark_target(name, seed=3)
    assert pirate_idle_fetch_ratio(factory, 5_000, 50_000) < IDLE_RESIDUAL


# --------------------------------------------------- serial == parallel


def test_serial_and_parallel_suites_are_equivalent():
    """Worker fan-out must not change a single bit of the report."""
    serial = validate_suite(["povray"], GOLDEN_TIER, seed=5, workers=0)
    pooled = validate_suite(["povray"], GOLDEN_TIER, seed=5, workers=2)
    assert reports_equivalent(serial, pooled)
    # and the golden scenario exercises the identical path
    assert conformance_scenario(workers=2) == serial.to_dict()


def test_reports_equivalent_detects_differences():
    a = validate_suite(["povray"], GOLDEN_TIER, seed=5)
    b = validate_suite(["povray"], GOLDEN_TIER, seed=6)
    assert reports_equivalent(a, a)
    assert not reports_equivalent(a, b)  # different seed, different markers
    assert not reports_equivalent(a, a.reports[0])  # type-mismatch guard


# ------------------------------------------------------ one attach prefix


@st.composite
def attach_cases(draw):
    """A small machine, a zoo workload and one or two steal sizes (up to
    half the L3, where a one-thread Pirate holds its lines)."""
    ways = draw(st.sampled_from([4, 8, 16]))
    sets = draw(st.sampled_from([256, 512]))
    policy = draw(st.sampled_from(["lru", "nru", "plru", "random"]))
    config = tiny_config(l3_size=sets * ways * 64, l3_ways=ways, policy=policy)
    stolen_ways = draw(st.lists(st.integers(1, ways // 2), min_size=1, max_size=2, unique=True))
    sizes_mb = tuple((ways - k) * sets * 64 / MB for k in stolen_ways)
    name = draw(st.sampled_from(ZOO_NAMES))
    factory = zoo_target(
        name,
        working_set_mb=draw(st.sampled_from([0.02, 0.05, 0.1])),
        seed=draw(st.integers(0, 2**16)),
    )
    return config, sizes_mb, name, factory, draw(st.integers(0, 2**16))


def _tier(sizes_mb) -> ValidationTier:
    return ValidationTier(
        name="prop",
        sizes_mb=sizes_mb,
        trace_lines=2_000,
        footprint_sweeps=2,
        window_cap=2,
        warm_start_instructions=10_000.0,
        profile_instructions=30_000.0,
    )


@given(case=attach_cases())
@settings(max_examples=12)
def test_differential_windows_equal_fresh_attach_runs(case):
    """One shared prefix (or one per window under ``random``) measures
    exactly what a fresh ``measure_between_markers`` run per window does."""
    config, sizes_mb, name, factory, seed = case
    diff = differential_compare(name, _tier(sizes_mb), config=config, seed=seed, factory=factory)
    start, stop = diff.start_marker, diff.stop_marker

    def fresh(stolen: int, *key) -> AttachWindow:
        return measure_between_markers(
            factory, stolen, start, stop, config=config, seed=stable_seed(seed, name, *key)
        )

    assert diff.baseline == fresh(0, "base")
    samples = []
    for size_mb in sizes_mb:
        win = fresh(config.l3.size - int(size_mb * MB), "pirate", size_mb)
        samples.append(
            IntervalSample(win.target_cache_bytes, win.target, win.pirate_fetch_ratio, win.valid)
        )
    assert diff.pirate == PerformanceCurve.from_samples(name, samples, config.core.clock_hz)


def test_random_windows_run_their_own_prefix_where_they_are_measured():
    """Under ``random`` each window's seed shapes its prefix: no shared
    prefix runs, and pool workers measure exactly what the serial path does."""
    from repro.observability import Telemetry

    config = tiny_config(l3_size=512 * 8 * 64, l3_ways=8, policy="random")
    factory = zoo_target("zipf", working_set_mb=0.05, seed=3)
    tier = _tier((7 * 512 * 64 / MB, 5 * 512 * 64 / MB))
    tel = Telemetry()
    serial = differential_compare(
        "zipf", tier, config=config, seed=1, factory=factory, telemetry=tel
    )
    pooled = differential_compare("zipf", tier, config=config, seed=1, factory=factory, workers=2)
    assert (pooled.baseline, pooled.pirate) == (serial.baseline, serial.pirate)
    spans = tel.summary(deterministic=True)["measurement"]["spans"]
    assert "validate_baseline" in spans and "validate_prefix" not in spans
