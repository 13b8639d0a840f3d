"""The chaos proof: supervision never returns silently wrong data.

The headline invariant of PR 6, exercised with real process kills, hangs
and cache rot:

    Under any injected chaos schedule, a supervised sweep either returns
    curves bit-identical to a clean serial run or explicitly quarantines
    the affected points — never silently wrong data.

Every test here builds a seedable :class:`~repro.faults.chaos.ChaosPlan`,
runs the supervised executor under it, and checks the results point by
point against a chaos-free serial baseline.  The seed matrix is
CI-expandable through ``REPRO_CHAOS_SEEDS`` (comma-separated ints).

Pool scenarios use ``workers=2`` — enough to cross a process boundary
without assuming multiple cores.
"""

import os

import pytest

from repro.analysis.merge import assemble_curve
from repro.config import nehalem_config
from repro.core.parallel import SupervisorPolicy, SweepSpec, run_sweep
from repro.errors import ConfigError
from repro.faults.chaos import (
    CHAOS_ENV,
    ChaosError,
    ChaosPlan,
    apply_chaos,
    chaos_from_env,
)
from repro.workloads import TargetSpec

SIZES = [8.0, 4.0, 1.0]

#: the default failure budget: a supervised sweep
SUPERVISED = SupervisorPolicy()

#: CI widens the chaos seed matrix without touching the code.
CHAOS_SEEDS = [
    int(s) for s in os.environ.get("REPRO_CHAOS_SEEDS", "0,1").split(",") if s.strip()
]


def small_spec(**overrides) -> SweepSpec:
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


def rows(results, clock_hz=nehalem_config().core.clock_hz):
    return assemble_curve("t", results, clock_hz).to_rows()


@pytest.fixture(scope="module")
def serial_baseline():
    results, _ = run_sweep(small_spec(), SIZES, workers=0)
    return results


def assert_invariant(results, baseline) -> set[int]:
    """The headline check; returns the quarantined index set.

    Every point is accounted for exactly once, and every *measured* point
    is bit-identical to the chaos-free baseline.
    """
    quarantined = {r.index for r in results if r.quality and r.quality.quarantined}
    measured = [r for r in results if r.index not in quarantined]
    assert {r.index for r in results} == {r.index for r in baseline}
    expected = [r for r in baseline if r.index not in quarantined]
    assert len(measured) == len(expected)
    if measured:  # a fully-quarantined sweep has no curve to compare
        assert rows(measured) == rows(expected)
    return quarantined


# -- plan construction and transport -----------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(hang_seconds=0),
        dict(kills={-1: (1,)}),
        dict(hangs={0: (0,)}),
        dict(errors={2: (1, -3)}),
    ],
)
def test_plan_rejects_bad_schedules(kwargs):
    with pytest.raises(ConfigError):
        ChaosPlan(**kwargs)


def test_plan_json_round_trip():
    plan = ChaosPlan(
        seed=5, kills={0: (1, 2)}, hangs={1: (1,)}, errors={2: (3,)}, hang_seconds=7.5
    )
    back = ChaosPlan.from_json(plan.to_json())
    assert back == plan


def test_plan_from_json_rejects_junk():
    with pytest.raises(ConfigError, match="invalid chaos plan"):
        ChaosPlan.from_json("{broken")
    with pytest.raises(ConfigError, match="invalid chaos plan"):
        ChaosPlan.from_json('{"kills": {"x": "y"}}')


def test_env_transport_round_trip():
    plan = ChaosPlan(kills={1: (1,)})
    assert chaos_from_env() is None
    with plan:
        assert os.environ[CHAOS_ENV]
        assert chaos_from_env() == plan
    assert chaos_from_env() is None


def test_malformed_env_raises_not_disables(monkeypatch):
    # silent disable would fake a clean chaos run; refuse loudly instead
    monkeypatch.setenv(CHAOS_ENV, "{garbage")
    with pytest.raises(ConfigError):
        chaos_from_env()


def test_random_plan_is_seed_deterministic():
    a = ChaosPlan.random(8, seed=3, kill_rate=0.5, hang_rate=0.25, error_rate=0.5)
    b = ChaosPlan.random(8, seed=3, kill_rate=0.5, hang_rate=0.25, error_rate=0.5)
    assert a == b and not a.empty
    assert ChaosPlan.random(8, seed=4, kill_rate=0.5) != a
    assert ChaosPlan.random(8, seed=3).empty  # zero rates schedule nothing


def test_random_plan_validation():
    with pytest.raises(ConfigError, match="kill_rate"):
        ChaosPlan.random(3, kill_rate=1.5)
    with pytest.raises(ConfigError, match="repeats"):
        ChaosPlan.random(3, repeats=0)
    with pytest.raises(ConfigError, match="n_points"):
        ChaosPlan.random(-1)


def test_apply_chaos_semantics():
    plan = ChaosPlan(errors={0: (2,)})
    apply_chaos(None, 0, 1)  # no plan, no-op
    apply_chaos(plan, 0, 1)  # wrong attempt, no-op
    apply_chaos(plan, 1, 2)  # wrong point, no-op
    with pytest.raises(ChaosError):
        apply_chaos(plan, 0, 2)


def test_apply_chaos_fatal_ok_false_skips_kills_and_hangs():
    # a kill or hang scheduled on the serial path must not fire in-process
    plan = ChaosPlan(kills={0: (1,)}, hangs={0: (1,)}, hang_seconds=30.0)
    apply_chaos(plan, 0, 1, fatal_ok=False)  # would kill this test if honored


# -- the headline invariant, scenario by scenario ----------------------------------


def test_worker_kill_recovers_bit_identical(serial_baseline):
    """A single worker kill: respawn + solo re-verify, no quarantine."""
    plan = ChaosPlan(kills={0: (1,)})
    with plan:
        results, stats = run_sweep(small_spec(), SIZES, workers=2, policy=SUPERVISED)
    assert stats.respawns >= 1
    assert assert_invariant(results, serial_baseline) == set()


def test_repeated_kills_quarantine_the_point(serial_baseline):
    """A point that kills its worker on every attempt is quarantined."""
    plan = ChaosPlan(kills={1: tuple(range(1, 10))})
    with plan:
        results, stats = run_sweep(small_spec(), SIZES, workers=2, policy=SUPERVISED)
    assert stats.quarantined == 1
    assert assert_invariant(results, serial_baseline) == {1}
    victim = next(r for r in results if r.index == 1)
    assert any("crash" in reason for reason in victim.quality.reasons)


def test_hang_trips_the_watchdog_then_recovers(serial_baseline):
    """A hung point is timed out, retried, and completes bit-identical."""
    plan = ChaosPlan(hangs={0: (1,)}, hang_seconds=30.0)
    policy = SupervisorPolicy(point_timeout_s=3.0)
    with plan:
        results, stats = run_sweep(
            small_spec(), SIZES, workers=2, policy=policy
        )
    assert stats.timeouts >= 1
    assert stats.respawns >= 1
    assert assert_invariant(results, serial_baseline) == set()


def test_persistent_hang_quarantines(serial_baseline):
    plan = ChaosPlan(hangs={0: tuple(range(1, 10))}, hang_seconds=30.0)
    policy = SupervisorPolicy(point_timeout_s=3.0, max_point_failures=2)
    with plan:
        results, stats = run_sweep(
            small_spec(), SIZES, workers=2, policy=policy
        )
    assert stats.timeouts >= 2
    assert assert_invariant(results, serial_baseline) == {0}
    victim = next(r for r in results if r.index == 0)
    assert any("timeout" in reason for reason in victim.quality.reasons)


def test_mixed_chaos_across_points(serial_baseline):
    """Kills, hangs and errors on different points in one sweep."""
    plan = ChaosPlan(
        kills={0: (1,)},
        hangs={1: (1,)},
        errors={2: (1,)},
        hang_seconds=30.0,
    )
    policy = SupervisorPolicy(point_timeout_s=3.0)
    with plan:
        results, stats = run_sweep(
            small_spec(), SIZES, workers=2, policy=policy
        )
    # one fault each, budget is 2: everything recovers, nothing quarantined
    assert assert_invariant(results, serial_baseline) == set()
    assert stats.quarantined == 0


def test_chaos_with_cache_and_corruption(tmp_path, serial_baseline):
    """Kill chaos + corrupted cache entries: still bit-identical."""
    from repro.faults.chaos import corrupt_cache_entries

    cache_dir = tmp_path / "cache"
    run_sweep(small_spec(), SIZES, cache_dir=cache_dir)
    corrupt_cache_entries(cache_dir, seed=5, count=2, mode="tamper")
    plan = ChaosPlan(kills={0: (1,)})
    with plan:
        results, stats = run_sweep(
            small_spec(), SIZES, workers=2, cache_dir=cache_dir, policy=SUPERVISED
        )
    assert stats.cache_corrupt == 2
    assert stats.cache_hits == 1
    assert assert_invariant(results, serial_baseline) == set()


def test_quarantine_is_deterministic(serial_baseline):
    """The same chaos schedule quarantines the same points, run after run."""
    plan = ChaosPlan(errors={0: tuple(range(1, 10)), 2: tuple(range(1, 10))})
    outcomes = []
    for _ in range(2):
        with plan:
            results, _stats = run_sweep(
                small_spec(), SIZES, workers=0,
                policy=SupervisorPolicy(max_point_failures=2),
            )
        outcomes.append(assert_invariant(results, serial_baseline))
    assert outcomes[0] == outcomes[1] == {0, 2}


# -- the randomized seed matrix ----------------------------------------------------


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_random_chaos_schedule_upholds_invariant(serial_baseline, seed):
    """Sampled kill+error schedules: recovery keeps every point identical."""
    plan = ChaosPlan.random(
        len(SIZES), seed=seed, kill_rate=0.5, error_rate=0.4, repeats=1
    )
    with plan:
        results, stats = run_sweep(small_spec(), SIZES, workers=2, policy=SUPERVISED)
    # single-shot faults always sit inside the default failure budget of 2
    assert assert_invariant(results, serial_baseline) == set()
    assert stats.quarantined == 0


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_random_persistent_chaos_quarantines_exactly_the_faulted(
    serial_baseline, seed
):
    """Persistent faults: the chaos-scheduled points (and only those) fall."""
    plan = ChaosPlan.random(
        len(SIZES), seed=seed, kill_rate=0.5, error_rate=0.4, repeats=9
    )
    with plan:
        results, stats = run_sweep(small_spec(), SIZES, workers=2, policy=SUPERVISED)
    quarantined = assert_invariant(results, serial_baseline)
    scheduled = set(plan.kills) | set(plan.errors)
    assert quarantined == scheduled
    assert stats.quarantined == len(scheduled)
