"""Surrogate engine integration: auto escalation, caching, CLI, routing.

The analytic tier's contract with the rest of the executor stack:

* ``auto`` answers confident sizes analytically and escalates grey ones to
  the measured engine with the same content-keyed seeds — so every
  escalated point is bit-identical to a direct measured sweep, for any
  worker count,
* surrogate cache entries live under keys disjoint from measured ones:
  neither engine can ever serve the other's points,
* predictions carry no retry policy in their keys, and ``surrogate``
  refuses one outright: a prediction has nothing to retry,
* :func:`run_sweep` rejects invalid engines and analytic+supervision
  combos with one-line errors before anything runs.
"""

import json

import pytest

from repro.analysis.merge import assemble_curve, ordered_results
from repro.cli import main
from repro.config import nehalem_config
from repro.core import measure_curve_fixed
from repro.core.parallel import (
    SupervisorPolicy,
    SweepSpec,
    point_cache_key,
    run_sweep,
    sweep_points,
)
from repro.core.resilience import PartialCurve, RetryPolicy
from repro.errors import ConfigError, MeasurementError
from repro.surrogate import SurrogatePolicy, surrogate_point_key
from repro.workloads import TargetSpec

#: 2MB working set against an 8MB L3: 8MB sits far above the knee
#: (confident), 1MB and 0.5MB sit on/below it (grey for any sane bound)
SIZES = [8.0, 1.0, 0.5]


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


def rows(results):
    return assemble_curve("t", results, nehalem_config().core.clock_hz).to_rows()


@pytest.fixture(scope="module")
def surrogate_results():
    results, stats = run_sweep(small_spec(), SIZES, engine="surrogate")
    assert stats.measured == len(SIZES)
    return ordered_results(results)


@pytest.fixture(scope="module")
def measured_baseline():
    results, _ = run_sweep(small_spec(), SIZES, workers=0)
    return ordered_results(results)


# -- the analytic sweep itself -----------------------------------------------------


def test_surrogate_points_carry_surrogate_quality(surrogate_results):
    for r in surrogate_results:
        assert r.quality is not None and r.quality.surrogate
        assert r.quality.label in ("surrogate", "surrogate-grey")
        assert any(s.startswith("error_estimate=") for s in r.quality.reasons)


def test_knee_sizes_are_grey_and_far_sizes_confident(surrogate_results):
    by_size = {r.size_mb: r for r in surrogate_results}
    assert by_size[8.0].quality.valid  # footprint fits: confident
    assert not by_size[1.0].quality.valid  # on the knee: self-flagged
    assert not by_size[0.5].quality.valid
    assert by_size[1.0].quality.label == "surrogate-grey"


def test_surrogate_fetch_counts_monotone_in_capacity(surrogate_results):
    fetches = [r.samples[0].target.l3_fetches for r in surrogate_results]
    # ordered_results sorts by index == descending size here
    assert fetches == sorted(fetches)


def test_surrogate_sweep_is_deterministic(surrogate_results):
    results, _ = run_sweep(small_spec(), SIZES, engine="surrogate")
    assert rows(results) == rows(surrogate_results)


# -- auto escalation: bit-identical to the measured engine -------------------------


@pytest.mark.parametrize("workers", [0, 2])
def test_auto_escalates_grey_points_bit_identically(measured_baseline, workers):
    auto, stats = run_sweep(small_spec(), SIZES, engine="auto", workers=workers)
    by_size = {r.size_mb: r for r in ordered_results(auto)}
    measured = {r.size_mb: r for r in measured_baseline}
    grey_sizes = [1.0, 0.5]
    for size in grey_sizes:
        escalated = by_size[size]
        assert escalated.quality is None  # measured points carry no quality
        assert escalated.seed == measured[size].seed
        assert escalated.samples == measured[size].samples
    assert by_size[8.0].quality.surrogate  # confident point stays analytic
    assert stats.measured == len(SIZES) + len(grey_sizes)


def test_auto_with_no_grey_points_never_measures():
    results, stats = run_sweep(small_spec(), [8.0, 7.0], engine="auto")
    assert all(r.quality.surrogate for r in results)
    assert stats.measured == 2  # both analytic, zero escalations


def test_auto_sweep_through_harness_matches_engines():
    target = TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7)
    kwargs = dict(
        benchmark="micro.random", interval_instructions=40_000.0,
        n_intervals=1, seed=11,
    )
    auto = measure_curve_fixed(target, SIZES, engine="auto", **kwargs)
    measured = measure_curve_fixed(target, SIZES, engine="measure", **kwargs)
    auto_rows = {r["cache_mb"]: r for r in auto.to_rows()}
    measured_rows = {r["cache_mb"]: r for r in measured.to_rows()}
    for size in (1.0, 0.5):  # escalated: bit-identical to the measured curve
        assert auto_rows[size]["fetch_ratio"] == measured_rows[size]["fetch_ratio"]
        assert auto_rows[size]["cpi"] == measured_rows[size]["cpi"]


# -- caching: disjoint keys, no cross-engine pollution -----------------------------


def test_surrogate_keys_differ_from_measured_and_across_policies():
    spec = small_spec()
    policy = SurrogatePolicy()
    for p in sweep_points(spec, SIZES):
        skey = surrogate_point_key(spec, p, policy)
        assert skey != point_cache_key(spec, p)
        assert skey != surrogate_point_key(spec, p, SurrogatePolicy(bound=0.05))
        assert skey == surrogate_point_key(spec, p, SurrogatePolicy())


def test_surrogate_cache_roundtrip_and_no_cross_engine_hits(tmp_path):
    spec = small_spec()
    cache_dir = tmp_path / "cache"
    first, s1 = run_sweep(spec, SIZES, engine="surrogate", cache_dir=cache_dir)
    assert s1.measured == len(SIZES) and s1.cache_hits == 0
    second, s2 = run_sweep(spec, SIZES, engine="surrogate", cache_dir=cache_dir)
    assert s2.cache_hits == len(SIZES) and s2.measured == 0
    assert rows(second) == rows(first)
    # cached quality survives the round-trip intact
    for r in ordered_results(second):
        assert r.quality.surrogate
    # the measured engine sees none of the surrogate's entries
    _, ms = run_sweep(spec, SIZES, cache_dir=cache_dir)
    assert ms.cache_hits == 0
    # ... and its freshly stored points don't feed the surrogate either
    _, s3 = run_sweep(
        spec,
        SIZES,
        engine="surrogate",
        surrogate=SurrogatePolicy(bound=0.05),
        cache_dir=cache_dir,
    )
    assert s3.cache_hits == 0 and s3.measured == len(SIZES)


# -- harness routing ---------------------------------------------------------------


def test_engine_surrogate_returns_partial_curve():
    curve = measure_curve_fixed(
        TargetSpec(kind="micro.random", working_set_mb=0.5, seed=7),
        [8.0, 4.0],
        benchmark="micro.random",
        engine="surrogate",
        seed=11,
    )
    assert isinstance(curve, PartialCurve)
    assert all(q.surrogate for q in curve.quality.values())


def test_unknown_engine_rejected_before_anything_runs():
    with pytest.raises(ConfigError, match="unknown engine"):
        measure_curve_fixed(
            TargetSpec(kind="micro.random", working_set_mb=0.5, seed=7),
            [8.0],
            engine="warp",
        )


def test_analytic_engines_refuse_supervision():
    spec = small_spec(target=TargetSpec(kind="micro.random", working_set_mb=0.5, seed=7))
    with pytest.raises(ConfigError, match="conflicts with supervision"):
        run_sweep(spec, [8.0], engine="surrogate", policy=SupervisorPolicy())
    with pytest.raises(ConfigError, match="conflicts with supervision"):
        run_sweep(spec, [8.0], engine="auto", resume=True)


def test_surrogate_policy_validates_fields():
    with pytest.raises(MeasurementError, match="bound must be in"):
        SurrogatePolicy(bound=1.5)


# -- retry policies: nothing to retry in a prediction ------------------------------


def test_surrogate_engine_rejects_a_retry_policy():
    spec = small_spec(retry=RetryPolicy(max_attempts=3))
    with pytest.raises(ConfigError, match="conflicts with a retry policy"):
        run_sweep(spec, SIZES, engine="surrogate")


def test_surrogate_keys_ignore_the_retry_policy():
    spec = small_spec()
    retried = small_spec(retry=RetryPolicy(max_attempts=3))
    for p in sweep_points(spec, SIZES):
        assert surrogate_point_key(retried, p) == surrogate_point_key(spec, p)
        # the measured keys still fork: escalated points honour the policy
        assert point_cache_key(retried, p) != point_cache_key(spec, p)


def test_auto_with_retry_shares_predicted_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    retried = small_spec(retry=RetryPolicy(max_attempts=2))
    first, s1 = run_sweep(retried, SIZES, engine="auto", cache_dir=cache_dir)
    escalated = [r for r in first if r.quality is None or not r.quality.surrogate]
    assert escalated and all(r.quality.attempts >= 1 for r in escalated)
    _, s2 = run_sweep(small_spec(), SIZES, engine="auto", cache_dir=cache_dir)
    # every prediction is shared; the grey points re-measure under their
    # retry-free measured keys
    assert s2.cache_hits == len(SIZES)
    assert s2.measured == len(escalated)


def test_cache_hit_takes_the_index_of_the_point_that_found_it(tmp_path):
    cache_dir = tmp_path / "cache"
    run_sweep(small_spec(), [8.0, 1.0], engine="surrogate", cache_dir=cache_dir)
    results, stats = run_sweep(
        small_spec(), [1.0, 0.5], engine="surrogate", cache_dir=cache_dir
    )
    assert stats.cache_hits == 1
    assert {r.size_mb: r.index for r in results} == {1.0: 0, 0.5: 1}
    assert [r.size_mb for r in ordered_results(results)] == [1.0, 0.5]


def test_experiments_conformance_rejects_auto_engine():
    from repro.experiments import conformance

    with pytest.raises(ConfigError, match="measure or surrogate"):
        conformance.run(engine="auto")


# -- CLI ---------------------------------------------------------------------------


def collect():
    lines = []

    def out(text=""):
        lines.append(str(text))

    return lines, out


def test_cli_rejects_unknown_engine():
    lines, out = collect()
    assert main(["sweep", "gromacs", "--engine", "warp"], out=out) == 2
    assert "unknown engine 'warp'" in "\n".join(lines)


def test_cli_rejects_bad_surrogate_bound():
    lines, out = collect()
    rc = main(
        ["curve", "gromacs", "--engine", "surrogate", "--surrogate-bound", "2"],
        out=out,
    )
    assert rc == 2
    assert "must be in (0, 1)" in "\n".join(lines)


def test_cli_rejects_surrogate_bound_without_engine():
    lines, out = collect()
    assert main(["sweep", "gromacs", "--surrogate-bound", "0.05"], out=out) == 2
    assert "needs --engine" in "\n".join(lines)


def test_cli_rejects_validate_engine_auto():
    lines, out = collect()
    assert main(["validate", "gromacs", "--engine", "auto"], out=out) == 2
    assert "nothing to grade" in "\n".join(lines)


def test_cli_rejects_surrogate_with_supervision():
    lines, out = collect()
    rc = main(
        ["sweep", "gromacs", "--engine", "surrogate", "--supervise"], out=out
    )
    assert rc == 2
    assert "conflicts with supervision" in "\n".join(lines)


def test_cli_experiments_rejects_unknown_engine():
    lines, out = collect()
    assert main(["experiments", "--engine", "warp"], out=out) == 2


def test_cli_surrogate_sweep_rejects_retries():
    lines, out = collect()
    rc = main(
        ["sweep", "mcf", "--sizes", "8", "--interval", "60000", "--intervals", "1",
         "--engine", "surrogate", "--retries", "2"],
        out=out,
    )
    assert rc == 2
    errors = [line for line in lines if line.startswith("error:")]
    assert len(errors) == 1 and "retry policy" in errors[0]


def test_cli_surrogate_curve_runs():
    lines, out = collect()
    rc = main(
        ["curve", "gromacs", "--engine", "surrogate", "--sizes", "8,2"], out=out
    )
    assert rc == 0
    text = "\n".join(lines)
    assert "surrogate" in text  # the quality column labels the engine


def test_cli_validate_surrogate_grades_and_writes_json(tmp_path):
    report = tmp_path / "surrogate_report.json"
    lines, out = collect()
    rc = main(
        ["validate", "gromacs", "--engine", "surrogate", "--quick",
         "--json", str(report)],
        out=out,
    )
    assert rc == 0
    text = "\n".join(lines)
    assert "Surrogate grading" in text and "PASS" in text
    payload = json.loads(report.read_text())
    assert payload["engine"] == "surrogate" and payload["passed"]
    grades = payload["benchmarks"][0]["grades"]
    assert {g["verdict"] for g in grades} <= {"PASS", "GRAY", "FAIL"}
