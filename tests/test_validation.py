"""Differential validation harness: tiers, reports, experiment wiring."""

import json

import pytest

from repro.config import nehalem_config
from repro.errors import ConfigError
from repro.experiments import conformance as conformance_exp
from repro.experiments.scale import QUICK, Scale
from repro.observability import Telemetry
from repro.validation import (
    VALIDATE_FULL,
    VALIDATE_QUICK,
    ConformanceReport,
    PointVerdict,
    SuiteReport,
    ValidationTier,
    conformance_report,
    differential_compare,
    resolve_tier,
    tier_from_scale,
    validate_suite,
)
from repro.validation.tiers import check_way_representable
from tests.golden_scenarios import GOLDEN_TIER

# --------------------------------------------------------------------- tiers


def test_builtin_tiers_resolve():
    assert resolve_tier("quick") is VALIDATE_QUICK
    assert resolve_tier("full") is VALIDATE_FULL
    with pytest.raises(ConfigError):
        resolve_tier("overnight")


def test_full_tier_matches_paper_grid():
    assert len(VALIDATE_FULL.sizes_mb) == 16
    assert VALIDATE_FULL.sizes_mb[0] == 0.5
    assert VALIDATE_FULL.sizes_mb[-1] == 8.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sizes_mb": ()},
        {"trace_lines": 0},
        {"footprint_sweeps": 0},
        {"window_cap": 0},
        {"bound": 0.0},
        {"bound": 1.0},
        {"reference_warmup_fraction": 1.0},
        {"reference_warmup_fraction": -0.1},
    ],
)
def test_tier_rejects_bad_parameters(kwargs):
    base = dict(name="bad", sizes_mb=(2.0,), trace_lines=1000)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ValidationTier(**base)


def test_window_policy_sweeps_footprint_but_caps():
    tier = ValidationTier(
        name="t", sizes_mb=(8.0,), trace_lines=10_000,
        footprint_sweeps=6, window_cap=8,
    )
    # no or tiny footprint: the base budget stands
    assert tier.window_lines(0) == 10_000
    assert tier.window_lines(1_000) == 10_000
    # mid-size footprint: stretched to sweep it 6 times
    assert tier.window_lines(5_000) == 30_000
    # huge footprint: capped at 8x the base budget
    assert tier.window_lines(1_000_000) == 80_000


def test_with_sizes_and_with_bound_leave_original_untouched():
    derived = VALIDATE_QUICK.with_sizes([4.0]).with_bound(0.01)
    assert derived.sizes_mb == (4.0,)
    assert derived.bound == 0.01
    assert derived.trace_lines == VALIDATE_QUICK.trace_lines
    assert VALIDATE_QUICK.sizes_mb == (2.0, 5.0, 8.0)
    assert VALIDATE_QUICK.bound == 0.03


def test_way_representability_check():
    cfg = nehalem_config()
    check_way_representable(
        [0.5, 2.0, 8.0], l3_size=cfg.l3.size, l3_ways=cfg.l3.ways
    )
    for bad in ([1.7], [0.25], [8.5]):
        with pytest.raises(ConfigError):
            check_way_representable(bad, l3_size=cfg.l3.size, l3_ways=cfg.l3.ways)


def test_tier_from_scale_reproduces_fig6_budget_math():
    tier = tier_from_scale(QUICK)
    assert tier.name == QUICK.name
    assert tier.sizes_mb == QUICK.sizes_mb
    assert tier.trace_lines == QUICK.trace_lines
    budget = QUICK.dynamic_total_instructions / 4
    assert tier.profile_instructions == min(budget, 4e6)
    assert tier.warm_start_instructions == min(2e6, budget)
    assert tier.footprint_sweeps == 6 and tier.window_cap == 8
    assert tier.reference_warmup_fraction == 0.5


# ------------------------------------------------------- verdict semantics


def _verdict(size, div, trusted, bound=0.03):
    return PointVerdict(
        size_mb=size,
        pirate_fetch_ratio=0.05 + div,
        reference_fetch_ratio=0.05,
        fetch_divergence=div,
        pirate_miss_ratio=0.05,
        reference_miss_ratio=0.05,
        miss_divergence=0.0,
        cpi=1.5,
        cpi_delta=0.2,
        trusted=trusted,
        conforms=trusted and div <= bound,
    )


def test_report_passes_when_all_trusted_points_conform():
    rep = ConformanceReport(
        "b", 0.03, [_verdict(2.0, 0.001, True), _verdict(8.0, 0.02, True)]
    )
    assert rep.passed
    assert rep.violations == []
    assert rep.untrusted == []
    assert rep.worst_divergence == pytest.approx(0.02)


def test_report_fails_on_a_trusted_violation():
    rep = ConformanceReport(
        "b", 0.03, [_verdict(2.0, 0.05, True), _verdict(8.0, 0.001, True)]
    )
    assert not rep.passed
    assert rep.violations == [2.0]
    assert "FAIL" in rep.format()


def test_untrusted_points_are_grey_not_failures():
    # the paper's grey regions: excluded from the error metric entirely
    rep = ConformanceReport(
        "b", 0.03, [_verdict(0.5, 0.20, False), _verdict(8.0, 0.001, True)]
    )
    assert rep.passed
    assert rep.untrusted == [0.5]
    assert rep.worst_divergence == pytest.approx(0.001)  # grey point excluded
    assert "GRAY" in rep.format()


def test_report_with_no_trusted_points_fails():
    rep = ConformanceReport("b", 0.03, [_verdict(2.0, 0.2, False)])
    assert not rep.passed


def test_suite_rollup_and_lookup():
    good = ConformanceReport("a", 0.03, [_verdict(8.0, 0.01, True)])
    bad = ConformanceReport("b", 0.03, [_verdict(8.0, 0.09, True)])
    suite = SuiteReport(tier="quick", seed=0, bound=0.03, reports=[good, bad])
    assert not suite.passed
    assert suite.failing == ["b"]
    assert suite.worst_divergence == pytest.approx(0.09)
    assert suite.by_name("a") is good
    with pytest.raises(KeyError):
        suite.by_name("zzz")
    assert "1/2 benchmarks conform" in suite.summary_line()
    assert SuiteReport(tier="quick", seed=0, bound=0.03).passed is False


def test_suite_report_json_round_trip(tmp_path):
    suite = SuiteReport(
        tier="quick", seed=0, bound=0.03,
        reports=[ConformanceReport("a", 0.03, [_verdict(8.0, 0.01, True)])],
    )
    path = tmp_path / "conformance_report.json"
    suite.write_json(path)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(suite.to_dict()))
    assert loaded["passed"] is True
    assert loaded["benchmarks"][0]["points"][0]["size_mb"] == 8.0


# ------------------------------------------------------------ differential


@pytest.fixture(scope="module")
def povray_diff():
    return differential_compare("povray", GOLDEN_TIER, seed=5)


def test_differential_sweeps_every_tier_size(povray_diff):
    assert [p.cache_mb for p in povray_diff.pirate.points] == [2.0, 8.0]
    assert len(povray_diff.reference.points) == 2
    assert 0 < povray_diff.start_marker < povray_diff.stop_marker


def test_reference_curve_is_pinned_to_the_baseline(povray_diff):
    # §III-B1: after calibration the full-cache simulated point *equals*
    # the counter-measured solo fetch ratio
    assert povray_diff.reference.fetch_ratio_at(8.0) == pytest.approx(
        povray_diff.baseline.target.fetch_ratio, abs=1e-12
    )


def test_conformance_report_from_differential(povray_diff):
    rep = conformance_report(povray_diff)
    assert rep.passed
    assert len(rep.points) == 2
    assert rep.baseline_cpi == pytest.approx(povray_diff.baseline.target.cpi)
    # the full-cache point's CPI delta vs the solo baseline is ~0: the
    # Pirate steals nothing there, so the "curse" has not started yet
    full = max(rep.points, key=lambda p: p.size_mb)
    assert abs(full.cpi_delta) < 0.05
    for p in rep.points:
        assert p.fetch_divergence == pytest.approx(
            abs(p.pirate_fetch_ratio - p.reference_fetch_ratio)
        )


def test_validate_suite_emits_telemetry_and_streams(povray_diff):
    tel = Telemetry()
    echoed = []
    suite = validate_suite(
        ["povray"], GOLDEN_TIER, seed=5, telemetry=tel, echo=echoed.append
    )
    assert suite.passed
    assert echoed and "povray" in echoed[0]
    measurement = tel.summary(deterministic=True)["measurement"]
    counters = measurement["counters"]
    assert counters["validation_benchmarks_total"] == 1
    assert counters["validation_points_total"] == len(GOLDEN_TIER.sizes_mb)
    assert {
        "validate_suite", "validate_benchmark", "validate_profile",
        "validate_trace", "validate_reference", "validate_baseline",
        "validate_pirate", "validate_prefix",
    } <= set(measurement["spans"])
    # one Pirate-free prefix per benchmark serves the baseline and every size
    assert measurement["spans"]["validate_prefix"]["count"] == 1


# -------------------------------------------------------------- experiment

# cigar needs the quick tier's warm-start/window fidelity to conform (its
# 6MB footprint makes the baseline offset sensitive to short windows), so
# the tiny scale shrinks the grid but keeps quick-equivalent budgets
TINY_SCALE = Scale(
    name="tiny",
    sizes_mb=(2.0, 8.0),
    interval_instructions=80_000,
    dynamic_total_instructions=6_000_000,
    trace_lines=80_000,
    throughput_instructions=100_000,
    reference_benchmarks=("povray",),
    curve_benchmarks=(),
    steal_benchmarks=(),
    overhead_benchmarks=(),
    table3_intervals=(),
)


def test_conformance_experiment_covers_scale_benchmarks_plus_cigar():
    suite = conformance_exp.run(TINY_SCALE, seed=0)
    assert [r.benchmark for r in suite.reports] == ["povray", "cigar"]
    assert suite.passed
    assert "Conformance" in suite.format()
