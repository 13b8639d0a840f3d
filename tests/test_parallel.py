"""Parallel sweep executor: equivalence, caching, seeds, picklability.

The engine's contract is that parallelism is *invisible* in the results:
for any worker count, point order, or cache state, a sweep produces
bit-identical curves.  These tests pin that contract down, plus the
pickling guarantees the pool depends on, and the unsupervised fault
contract: without a ``SupervisorPolicy`` a point's first proven fault
raises instead of being retried or quarantined.

Pool-backed tests use ``workers=2`` — enough to cross a process boundary
without assuming multiple cores (CI containers may have one).
"""

import json
import pickle
import re
from multiprocessing import get_all_start_methods, get_context

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.merge import assemble_curve, merge_point_results, ordered_results
from repro.config import nehalem_config
from repro.core import measure_curve_fixed
from repro.core.curves import IntervalSample
from repro.core.parallel import (
    CACHE_FORMAT_VERSION,
    MAX_INTERVAL_INSTRUCTIONS,
    MAX_INTERVALS,
    PointResult,
    SweepCache,
    SweepSpec,
    derive_point_seed,
    parallel_map,
    point_cache_key,
    run_sweep,
    spec_token,
    sweep_points,
)
from repro.core.resilience import PointQuality, RetryPolicy
from repro.errors import ConfigError, MeasurementError
from repro.faults.chaos import ChaosError, ChaosPlan
from repro.hardware.counters import CounterSample
from repro.workloads import TargetSpec, benchmark_target

SIZES = [8.0, 4.0, 1.0]


def small_spec(**overrides) -> SweepSpec:
    """A fast three-point sweep spec over a 2MB-working-set micro benchmark."""
    defaults = dict(
        target=TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7),
        benchmark="micro.random",
        config=nehalem_config(),
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_pirate_threads", 0),
        ("num_pirate_threads", 1.5),
        ("num_pirate_threads", True),
        ("interval_instructions", 0.0),
        ("interval_instructions", float("nan")),
        ("interval_instructions", float("inf")),
        ("interval_instructions", "60000"),
        ("n_intervals", 0),
        ("n_intervals", 1.5),
        ("n_intervals", True),
        ("warmup_instructions", -5),
        ("warmup_instructions", float("inf")),
        ("seed", "x"),
        ("seed", 1.0),
        ("benchmark", 7),
    ],
)
def test_sweep_spec_refuses_a_broken_schedule(field, value):
    with pytest.raises(ConfigError, match=rf"^{field} must be ") as e:
        small_spec(**{field: value})
    assert "\n" not in str(e.value)


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("n_intervals", MAX_INTERVALS + 1, "an integer from 1 to 10000"),
        ("n_intervals", 10**400, "an integer from 1 to 10000"),
        ("interval_instructions", MAX_INTERVAL_INSTRUCTIONS * 2, "<= 1e+10"),
        ("interval_instructions", 10**400, "<= 1e+10"),
        ("warmup_instructions", 10**400, "<= 1e+10"),
        ("seed", 2**64, "fits in 64 bits"),
        ("seed", -(2**63) - 1, "fits in 64 bits"),
        ("seed", 10**40, "fits in 64 bits"),
    ],
)
def test_sweep_spec_bounds_the_work_it_asks_for(field, value, rule):
    with pytest.raises(ConfigError, match=rf"^{field} must be .*{re.escape(rule)}") as e:
        small_spec(**{field: value})
    assert "\n" not in str(e.value)


def test_sweep_spec_accepts_its_bounds():
    spec = small_spec(
        n_intervals=MAX_INTERVALS, interval_instructions=MAX_INTERVAL_INSTRUCTIONS, seed=2**64 - 1
    )
    assert spec.n_intervals == MAX_INTERVALS
    assert small_spec(seed=-(2**63)).seed == -(2**63)


def test_sweep_spec_normalises_numbers():
    spec = small_spec(interval_instructions=40_000, warmup_instructions=0)
    assert type(spec.interval_instructions) is float
    assert type(spec.warmup_instructions) is float
    assert spec_token(spec) == spec_token(small_spec(warmup_instructions=0.0))


@pytest.mark.parametrize(
    "sizes, match",
    [
        ([], "at least one"),
        ([0.0], "finite numbers > 0"),
        ([float("inf")], "finite numbers > 0"),
        (["2"], "finite numbers > 0"),
        ([9.0], "9MB exceeds the 8MB L3"),
    ],
)
def test_sweep_points_refuses_bad_sizes(sizes, match):
    with pytest.raises(ConfigError, match=match):
        sweep_points(small_spec(), sizes)


def rows(results, clock_hz=nehalem_config().core.clock_hz):
    return assemble_curve("t", results, clock_hz).to_rows()


@pytest.fixture(scope="module")
def serial_baseline():
    """One serial reference run shared by the equivalence tests."""
    results, stats = run_sweep(small_spec(), SIZES, workers=0)
    assert stats.measured == len(SIZES) and stats.cache_hits == 0
    return results


# -- serial/parallel equivalence ---------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_never_changes_results(serial_baseline, workers):
    results, stats = run_sweep(small_spec(), SIZES, workers=workers)
    assert rows(results) == rows(serial_baseline)
    assert stats.measured == len(SIZES)


def test_measure_curve_fixed_parallel_equals_serial():
    kwargs = dict(
        interval_instructions=40_000.0, n_intervals=1, seed=11, benchmark="m"
    )
    target = TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7)
    serial = measure_curve_fixed(target, SIZES, workers=0, **kwargs)
    pooled = measure_curve_fixed(target, SIZES, workers=2, **kwargs)
    assert pooled.to_rows() == serial.to_rows()


def test_retry_sweep_parallel_equals_serial():
    spec = small_spec(retry=RetryPolicy(max_attempts=2))
    serial, _ = run_sweep(spec, SIZES, workers=0)
    pooled, _ = run_sweep(spec, SIZES, workers=2)
    assert rows(pooled) == rows(serial)
    assert all(r.quality is not None for r in ordered_results(pooled))


# -- the unsupervised fault contract -----------------------------------------------


@pytest.mark.parametrize("workers", [0, 2])
def test_unsupervised_error_raises_without_retry(workers):
    """No policy: a point's own exception raises, typed, on its first attempt.

    The chaos error fires on attempt 1 only, so a retry would succeed and a
    quarantine would return results: raising proves neither happened.
    """
    with ChaosPlan(errors={0: (1,)}):
        with pytest.raises(ChaosError, match="point 0 attempt 1"):
            run_sweep(small_spec(), SIZES, workers=workers)


def test_unsupervised_repeated_kill_is_a_one_line_typed_error():
    """No policy: a point that kills its worker even when run solo raises."""
    with ChaosPlan(kills={0: tuple(range(1, 10))}):
        with pytest.raises(MeasurementError, match="point 0") as e:
            run_sweep(small_spec(), SIZES, workers=2)
    assert "\n" not in str(e.value)
    assert "crashed its worker" in str(e.value)


def test_unsupervised_kill_of_a_suspect_recovers(serial_baseline):
    """A pool break with several points in flight blames nobody: without a
    policy, a one-off kill still re-runs the suspects solo and completes."""
    with ChaosPlan(kills={0: (1,)}):
        results, stats = run_sweep(small_spec(), SIZES, workers=2)
    assert stats.respawns >= 1
    assert rows(results) == rows(serial_baseline)


# -- seed derivation ---------------------------------------------------------------


def test_derive_point_seed_is_content_keyed():
    assert derive_point_seed(1, 2**20) == derive_point_seed(1, 2**20)
    assert derive_point_seed(1, 2**20) != derive_point_seed(2, 2**20)
    assert derive_point_seed(1, 2**20) != derive_point_seed(1, 2**21)


def test_point_seeds_stable_under_reordering():
    spec = small_spec()
    fwd = {p.size_mb: p.seed for p in sweep_points(spec, SIZES)}
    rev = {p.size_mb: p.seed for p in sweep_points(spec, SIZES[::-1])}
    assert fwd == rev


def test_sweep_results_stable_under_reordering(serial_baseline):
    results, _ = run_sweep(small_spec(), SIZES[::-1], workers=0)
    assert rows(results) == rows(serial_baseline)


# -- result cache ------------------------------------------------------------------


def test_cache_hit_run_does_zero_measurements(tmp_path, serial_baseline):
    spec = small_spec()
    first, stats1 = run_sweep(spec, SIZES, workers=0, cache_dir=tmp_path)
    assert stats1.measured == len(SIZES) and stats1.cache_hits == 0
    second, stats2 = run_sweep(spec, SIZES, workers=2, cache_dir=tmp_path)
    assert stats2.measured == 0 and stats2.cache_hits == len(SIZES)
    assert all(r.from_cache for r in second)
    assert rows(second) == rows(first) == rows(serial_baseline)


def test_crash_resume_remeasures_only_missing_points(tmp_path):
    spec = small_spec()
    points = sweep_points(spec, SIZES)
    run_sweep(spec, SIZES, workers=0, cache_dir=tmp_path)
    victim = point_cache_key(spec, points[1])
    (tmp_path / f"{victim}.json").unlink()
    results, stats = run_sweep(spec, SIZES, workers=0, cache_dir=tmp_path)
    assert stats.measured == 1 and stats.cache_hits == len(SIZES) - 1
    refetched = [r for r in ordered_results(results) if not r.from_cache]
    assert [r.size_mb for r in refetched] == [SIZES[1]]


def test_cache_key_depends_on_measurement_config():
    spec = small_spec()
    point = sweep_points(spec, SIZES)[0]
    base = point_cache_key(spec, point)
    assert point_cache_key(spec, point) == base  # stable
    for changed in (
        small_spec(seed=12),
        small_spec(interval_instructions=50_000.0),
        small_spec(retry=RetryPolicy()),
        small_spec(target=TargetSpec(kind="micro.random", working_set_mb=2.0, seed=8)),
    ):
        other = sweep_points(changed, SIZES)[0]
        assert point_cache_key(changed, other) != base


def test_cache_rejects_format_version_mismatch(tmp_path):
    cache = SweepCache(tmp_path)
    result = PointResult(
        index=0, size_mb=8.0, stolen_bytes=0, target_cache_bytes=8 << 20,
        seed=1, samples=[],
    )
    cache.store("k", result)
    loaded = cache.load("k")
    assert loaded is not None and loaded.from_cache
    payload = json.loads((tmp_path / "k.json").read_text())
    payload["cache_format"] = CACHE_FORMAT_VERSION + 1
    (tmp_path / "k.json").write_text(json.dumps(payload))
    assert cache.load("k") is None


def test_cache_treats_corrupt_entry_as_miss(tmp_path):
    cache = SweepCache(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    assert cache.load("bad") is None
    assert cache.load("absent") is None


def test_cache_round_trips_quality(tmp_path):
    cache = SweepCache(tmp_path)
    sample = IntervalSample(
        target_cache_bytes=4 << 20,
        target=CounterSample(cycles=10.0, instructions=5.0),
        pirate_fetch_ratio=0.01,
        valid=True,
        start_cycle=3.0,
        wall_cycles=7.0,
    )
    quality = PointQuality(
        requested_mb=4.0, measured_mb=4.0, attempts=2,
        pirate_fetch_ratio=0.01, valid=True, reasons=["warmup_retry"],
    )
    result = PointResult(
        index=1, size_mb=4.0, stolen_bytes=4 << 20, target_cache_bytes=4 << 20,
        seed=9, samples=[sample], quality=quality,
    )
    cache.store("q", result)
    loaded = cache.load("q")
    assert loaded.quality == quality
    assert loaded.samples == [sample]
    assert loaded.from_cache


def test_caching_requires_tokenized_factory(tmp_path):
    from repro.workloads.micro import random_micro

    spec = small_spec(target=lambda: random_micro(2.0, seed=7))
    with pytest.raises(MeasurementError, match="token"):
        run_sweep(spec, SIZES, workers=0, cache_dir=tmp_path)


def test_spec_token_names_the_full_config():
    token = spec_token(small_spec())
    assert set(token) == {
        "cache_format", "machine", "workload", "schedule", "retry", "fault_plan",
    }


# -- picklability ------------------------------------------------------------------


def test_unpicklable_factory_fails_fast_with_workers():
    from repro.workloads.micro import random_micro

    spec = small_spec(target=lambda: random_micro(2.0, seed=7))
    with pytest.raises(MeasurementError, match="pickle"):
        run_sweep(spec, SIZES, workers=2)
    # the serial path never needs to pickle
    results, _ = run_sweep(spec, [8.0], workers=0)
    assert len(results) == 1


def test_retry_policy_pickle_round_trip():
    policy = RetryPolicy(max_attempts=3, degrade_after_attempt=2)
    clone = pickle.loads(pickle.dumps(policy))
    assert clone == policy


def test_retry_policy_unpickle_revalidates():
    policy = RetryPolicy()
    state = policy.__getstate__()
    state["max_attempts"] = 0
    with pytest.raises(MeasurementError):
        RetryPolicy.__new__(RetryPolicy).__setstate__(state)


def test_sweep_spec_with_everything_pickles():
    spec = small_spec(retry=RetryPolicy())
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.target == spec.target
    assert clone.retry == spec.retry


# -- TargetSpec --------------------------------------------------------------------


def test_target_spec_validates_kind_and_name():
    with pytest.raises(ConfigError):
        TargetSpec(kind="nope")
    with pytest.raises(ConfigError):
        TargetSpec(kind="benchmark", name="not-a-benchmark")
    with pytest.raises(ConfigError):
        TargetSpec(kind="micro.random", working_set_mb=0.0)


def test_target_spec_builds_fresh_workloads():
    spec = TargetSpec(kind="micro.sequential", working_set_mb=1.0, seed=3)
    a, b = spec(), spec()
    assert a is not b
    assert a.name == b.name


def test_benchmark_target_routes_cigar():
    assert benchmark_target("cigar").kind == "cigar"
    assert benchmark_target("mcf").kind == "benchmark"
    assert benchmark_target("mcf", seed=4).token() != benchmark_target("mcf").token()


# -- helpers -----------------------------------------------------------------------


def _double(x):
    return 2 * x


def test_parallel_map_preserves_input_order():
    items = list(range(7))
    assert parallel_map(_double, items, workers=0) == [2 * x for x in items]
    assert parallel_map(_double, items, workers=2) == [2 * x for x in items]


class _Unshippable:
    """A mapped function that refuses to pickle, as a live machine would."""

    def __call__(self, x):
        return 2 * x

    def __reduce__(self):
        raise pickle.PicklingError("fn must not travel with every item")


@pytest.mark.skipif("fork" not in get_all_start_methods(), reason="needs fork")
def test_parallel_map_hands_fn_to_a_forked_worker_without_pickling():
    # fn reaches each worker once, at start-up, not with every item; a
    # forked worker inherits it, so even a fn that cannot pickle works
    items = list(range(5))
    pooled = parallel_map(_Unshippable(), items, workers=2, mp_context=get_context("fork"))
    assert pooled == [2 * x for x in items]


def test_parallel_map_rejects_negative_workers():
    with pytest.raises(MeasurementError):
        parallel_map(_double, [1], workers=-1)
    with pytest.raises(MeasurementError):
        run_sweep(small_spec(), SIZES, workers=-1)


# -- merge -------------------------------------------------------------------------


def _synthetic_result(index: int, quality: bool = False) -> PointResult:
    sample = IntervalSample(
        target_cache_bytes=(index + 1) << 20,
        target=CounterSample(cycles=100.0 + index, instructions=50.0),
        pirate_fetch_ratio=0.0,
        valid=True,
        wall_cycles=10.0,
    )
    q = None
    if quality:
        q = PointQuality(
            requested_mb=float(index + 1), measured_mb=float(index + 1),
            attempts=1, pirate_fetch_ratio=0.0, valid=True,
        )
    return PointResult(
        index=index, size_mb=float(index + 1), stolen_bytes=0,
        target_cache_bytes=(index + 1) << 20, seed=0, samples=[sample], quality=q,
    )


@given(perm=st.permutations(list(range(6))))
@settings(max_examples=40, deadline=None)
def test_merge_is_invariant_under_completion_order(perm):
    canonical = [_synthetic_result(i) for i in range(6)]
    shuffled = [_synthetic_result(i) for i in perm]
    assert merge_point_results(shuffled) == merge_point_results(canonical)


def test_ordered_results_rejects_duplicate_indices():
    with pytest.raises(ValueError, match="duplicate"):
        ordered_results([_synthetic_result(2), _synthetic_result(2)])


def test_degraded_collisions_merge_like_the_serial_engine():
    a = _synthetic_result(0, quality=True)
    b = _synthetic_result(1, quality=True)
    b.target_cache_bytes = a.target_cache_bytes  # degraded onto a's size
    _, quality = merge_point_results([a, b])
    merged = quality[a.target_cache_bytes]
    assert merged.attempts == 2
    assert any(r.startswith("merged_request_") for r in merged.reasons)


def test_assemble_curve_returns_partial_only_with_quality():
    from repro.core.curves import PerformanceCurve
    from repro.core.resilience import PartialCurve

    plain = assemble_curve("b", [_synthetic_result(0)], clock_hz=1e9)
    assert type(plain) is PerformanceCurve
    partial = assemble_curve("b", [_synthetic_result(0, quality=True)], clock_hz=1e9)
    assert isinstance(partial, PartialCurve)
    assert partial.quality
