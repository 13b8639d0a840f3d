"""Supervised sweep execution: policy, equivalence, quarantine, watchdog.

A :class:`SupervisorPolicy` extends the executor's contract: supervision
is *invisible* in the results — a supervised ``run_sweep`` returns curves
bit-identical to an unsupervised one for any worker count — until a point
actually misbehaves, at which point the misbehavior becomes an explicit
quarantined entry instead of an exception or silent data loss.  The full
chaos-driven proof of that invariant lives in ``tests/test_chaos.py``;
this file pins the supervisor's own mechanics.
"""

import pytest

from repro.analysis.merge import assemble_curve, merge_point_results
from repro.config import nehalem_config
from repro.core import measure_curve_fixed
from repro.core.journal import JournalState
from repro.core.parallel import (
    SupervisorPolicy,
    SweepSpec,
    quarantined_result,
    run_sweep,
    sweep_points,
)
from repro.core.resilience import PartialCurve
from repro.errors import ConfigError, MeasurementError
from repro.faults.chaos import ChaosPlan
from repro.observability import Telemetry
from repro.workloads import TargetSpec

SIZES = [8.0, 4.0, 1.0]

#: the default failure budget: a supervised sweep
SUPERVISED = SupervisorPolicy()


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


def rows(results, clock_hz=nehalem_config().core.clock_hz):
    return assemble_curve("t", results, clock_hz).to_rows()


@pytest.fixture(scope="module")
def serial_baseline():
    results, stats = run_sweep(small_spec(), SIZES, workers=0)
    assert stats.measured == len(SIZES)
    return results


# -- policy validation -------------------------------------------------------------


def test_policy_defaults_valid():
    policy = SupervisorPolicy()
    assert policy.point_timeout_s is None
    assert policy.max_point_failures == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(point_timeout_s=0.0),
        dict(point_timeout_s=-1.0),
        dict(max_point_failures=0),
    ],
)
def test_policy_rejects_bad_budgets(kwargs):
    with pytest.raises(ConfigError):
        SupervisorPolicy(**kwargs)


def test_supervised_rejects_negative_workers():
    with pytest.raises(MeasurementError, match="workers"):
        run_sweep(small_spec(), SIZES, workers=-1, policy=SUPERVISED)


def test_resume_requires_journal_dir():
    with pytest.raises(ConfigError, match="journal"):
        run_sweep(small_spec(), SIZES, resume=True, policy=SUPERVISED)


def test_resume_requires_run_id(tmp_path):
    with pytest.raises(ConfigError, match="run id"):
        run_sweep(
            small_spec(), SIZES, journal_dir=tmp_path, resume=True, policy=SUPERVISED
        )


# -- equivalence: supervision is invisible when nothing fails ----------------------


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_supervised_matches_run_sweep(serial_baseline, workers):
    results, stats = run_sweep(small_spec(), SIZES, workers=workers, policy=SUPERVISED)
    assert rows(results) == rows(serial_baseline)
    assert stats.measured == len(SIZES)
    assert stats.quarantined == 0
    assert stats.respawns == 0


def test_supervised_measure_curve_fixed_matches_plain():
    factory = TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7)
    kwargs = dict(
        benchmark="micro.random",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    plain = measure_curve_fixed(factory, SIZES, **kwargs)
    spec = SweepSpec(target=factory, config=nehalem_config(), **kwargs)
    results, _ = run_sweep(spec, SIZES, policy=SUPERVISED)
    supervised = assemble_curve(spec.benchmark, results, spec.config.core.clock_hz)
    assert supervised.to_rows() == plain.to_rows()


def test_supervised_uses_cache(tmp_path, serial_baseline):
    cache_dir = tmp_path / "cache"
    first, s1 = run_sweep(small_spec(), SIZES, cache_dir=cache_dir, policy=SUPERVISED)
    second, s2 = run_sweep(small_spec(), SIZES, cache_dir=cache_dir, policy=SUPERVISED)
    assert s1.measured == len(SIZES) and s1.cache_hits == 0
    assert s2.measured == 0 and s2.cache_hits == len(SIZES)
    assert rows(second) == rows(serial_baseline)


# -- quarantine --------------------------------------------------------------------


def test_quarantined_result_shape():
    spec = small_spec()
    point = sweep_points(spec, SIZES)[1]
    result = quarantined_result(spec, point, attempts=3, reasons=["worker crash"])
    assert result.samples == []
    assert result.quality.valid is False
    assert result.quality.quarantined is True
    assert result.quality.label == "quarantined"
    assert result.quality.reasons[-1] == "quarantined"
    assert result.quality.attempts == 3


def test_quarantined_result_merges_as_quality_only_entry():
    spec = small_spec()
    points = sweep_points(spec, SIZES)
    clean, _ = run_sweep(spec, SIZES)
    victim = clean[0].index
    mixed = [r for r in clean if r.index != victim]
    mixed.append(quarantined_result(spec, points[victim], attempts=2, reasons=["x"]))
    samples, quality = merge_point_results(mixed)
    # the quarantined point contributes no curve sample, only its quality
    # record (clean run_sweep results carry no quality metadata at all)
    assert len(samples) == len(SIZES) - 1
    assert len(quality) == 1
    assert next(iter(quality.values())).quarantined


def test_partial_curve_reports_quarantined_points():
    spec = small_spec()
    points = sweep_points(spec, SIZES)
    clean, _ = run_sweep(spec, SIZES)
    victim = clean[-1].index
    mixed = [r for r in clean if r.index != victim]
    mixed.append(quarantined_result(spec, points[victim], attempts=2, reasons=["x"]))
    curve = assemble_curve("t", mixed, nehalem_config().core.clock_hz)
    assert isinstance(curve, PartialCurve)
    quarantined = curve.quarantined_points()
    assert len(quarantined) == 1
    assert quarantined[0].label == "quarantined"


def test_serial_error_chaos_quarantines_at_budget(serial_baseline):
    # errors on every attempt of point 0: the failure budget is exhausted
    # and the point is quarantined; the others are untouched
    plan = ChaosPlan(errors={0: tuple(range(1, 10))})
    policy = SupervisorPolicy(max_point_failures=2)
    with plan:
        results, stats = run_sweep(
            small_spec(), SIZES, workers=0, policy=policy
        )
    assert stats.quarantined == 1
    assert stats.retries >= 1
    by_index = {r.index: r for r in results}
    assert by_index[0].quality.quarantined
    survivors = [r for r in results if r.index != 0]
    baseline_survivors = [r for r in serial_baseline if r.index != 0]
    assert rows(survivors) == rows(baseline_survivors)


def test_serial_error_chaos_retry_recovers_bit_identical(serial_baseline):
    # one error on the first attempt: retry succeeds, results identical
    plan = ChaosPlan(errors={1: (1,)})
    with plan:
        results, stats = run_sweep(small_spec(), SIZES, workers=0, policy=SUPERVISED)
    assert stats.quarantined == 0
    assert stats.retries == 1
    assert rows(results) == rows(serial_baseline)


# -- journal + telemetry -----------------------------------------------------------


def test_supervised_journals_every_point(tmp_path, serial_baseline):
    results, stats = run_sweep(
        small_spec(), SIZES, journal_dir=tmp_path, run_id="sup1", policy=SUPERVISED
    )
    assert stats.run_id == "sup1"
    state = JournalState.load(tmp_path, "sup1")
    assert state.done_indices() == {0, 1, 2}
    assert state.remaining(len(SIZES)) == []
    assert rows(results) == rows(serial_baseline)


def test_supervised_telemetry_metrics(tmp_path):
    tel = Telemetry()
    plan = ChaosPlan(errors={0: tuple(range(1, 10))})
    with plan:
        run_sweep(
            small_spec(),
            SIZES,
            workers=2,
            policy=SupervisorPolicy(max_point_failures=1),
            telemetry=tel,
        )
    summary = tel.summary()
    assert summary["measurement"]["counters"].get("quarantined_points_total", 0) == 1
    # scheduling metrics carry the exec_ prefix (excluded from determinism)
    assert summary["execution"]["counters"].get("exec_supervisor_heartbeats_total", 0) >= 1


def test_supervised_pool_fragments_absorbed_deterministically():
    tel_a, tel_b = Telemetry(), Telemetry()
    run_sweep(small_spec(), SIZES, workers=2, telemetry=tel_a, policy=SUPERVISED)
    run_sweep(small_spec(), SIZES, workers=0, telemetry=tel_b, policy=SUPERVISED)
    assert (
        tel_a.summary()["measurement"]["counters"]
        == tel_b.summary()["measurement"]["counters"]
    )
