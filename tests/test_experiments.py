"""Experiment modules: result containers, fast experiments end-to-end.

The heavyweight experiments run under ``benchmarks/``; here we run the fast
ones fully and exercise the result/aggregation logic of the rest with
synthetic inputs and a tiny scale.
"""

import dataclasses

import pytest

from repro.experiments import QUICK, FULL, Scale
from repro.experiments import (
    fig1_omnet,
    fig2_lbm,
    fig3_lru_stack,
    fig5_schedule,
    fig7_errors,
    fig8_curves,
    table1,
    table2_steal,
    table3_overhead,
)
from repro.experiments.runall import EXPERIMENTS, run_all

#: minimal scale for in-test experiment runs
TINY = Scale(
    name="tiny",
    sizes_mb=(2.0, 8.0),
    interval_instructions=80_000,
    dynamic_total_instructions=1_200_000,
    trace_lines=40_000,
    throughput_instructions=120_000,
    reference_benchmarks=("povray",),
    curve_benchmarks=("povray",),
    steal_benchmarks=("povray",),
    overhead_benchmarks=("povray",),
    table3_intervals=(("10M", 60_000.0), ("100M", 120_000.0)),
)


def test_scales_are_consistent():
    for scale in (QUICK, FULL):
        assert 0.5 in scale.sizes_mb and 8.0 in scale.sizes_mb
        assert scale.interval_instructions > 0
        assert scale.fixed_interval_instructions > 0
        assert len(scale.table3_intervals) == 3
        labels = [l for l, _ in scale.table3_intervals]
        assert labels == ["10M", "100M", "1B"]
        ivals = [v for _, v in scale.table3_intervals]
        assert ivals == sorted(ivals)
    assert len(FULL.sizes_mb) == 16  # 0.5..8.0 in 0.5 steps
    assert len(FULL.reference_benchmarks) == 12  # as presented in Fig. 6
    assert FULL.validation_benchmarks == (*FULL.reference_benchmarks, "cigar")
    with_cigar = dataclasses.replace(TINY, reference_benchmarks=("cigar", "mcf"))
    assert with_cigar.validation_benchmarks == ("cigar", "mcf")


def test_full_reference_benchmarks_are_traceable():
    from repro.workloads.spec import TRACEABLE_NAMES

    assert set(FULL.reference_benchmarks) <= set(TRACEABLE_NAMES)


# ------------------------------------------------------------------ fig3


def test_fig3_runs_and_is_equivalent():
    result = fig3_lru_stack.run(TINY)
    assert result.equivalent
    text = result.format()
    assert "EQUIVALENT" in text
    # didactic stack evolution is rendered per access
    assert len(result.steps) == len(fig3_lru_stack.DEFAULT_ACCESSES)


# ------------------------------------------------------------------ table1


def test_table1_matches_paper():
    result = table1.run(TINY)
    assert result.matches_paper
    assert "matches the paper" in result.format()


def test_table1_detects_mismatch():
    # corrupt the expectation table via a different machine
    from repro.config import tiny_config

    result = table1.Table1Result(config=tiny_config(), mismatches=["L3.size: x != y"])
    assert not result.matches_paper
    assert "MISMATCHES" in result.format()


# ------------------------------------------------------------------ fig5


def test_fig5_schedule_tiny():
    result = fig5_schedule.run(TINY, benchmark="povray")
    assert result.entries
    assert {e.target_cache_mb for e in result.entries} <= {2.0, 8.0}
    assert 0.0 <= result.gap_fraction < 1.0
    assert "dynamic adjustment schedule" in result.format()


# ------------------------------------------------------------------ result containers


def test_fig1_result_container():
    from repro.core.curves import CurvePoint, PerformanceCurve
    from repro.units import MB

    curve = PerformanceCurve("x", [
        CurvePoint(8 * MB, 1.0, 0.5, 0.01, 0.01, 0.0, True, 1),
    ])
    rows = [fig1_omnet.ScalingRow(1, 1.0, 1.0, 1.0), fig1_omnet.ScalingRow(4, 3.0, 3.2, 4.0)]
    res = fig1_omnet.Fig1Result("x", curve, rows)
    assert res.max_prediction_gap() == pytest.approx(0.2)
    assert "throughput scaling" in res.format()


def test_fig2_result_crossover():
    from repro.core.curves import CurvePoint, PerformanceCurve
    from repro.units import MB

    curve = PerformanceCurve("lbm", [CurvePoint(8 * MB, 1.0, 2.5, 0.05, 0.01, 0.0, True, 1)])
    res = fig2_lbm.Fig2Result(
        "lbm", curve,
        scaling=[fig1_omnet.ScalingRow(1, 1.0, 1.0, 1.0)],
        bandwidth=[
            fig2_lbm.BandwidthRow(1, 2.5, 2.4, False),
            fig2_lbm.BandwidthRow(4, 12.0, 10.2, True),
        ],
    )
    assert res.crossover_instances() == 4
    assert "bandwidth-bound" in res.format()
    res2 = fig2_lbm.Fig2Result("lbm", curve, bandwidth=[fig2_lbm.BandwidthRow(1, 1.0, 1.0, False)])
    assert res2.crossover_instances() is None


def test_fig7_from_synthetic_fig6():
    from repro.analysis.errors import CurveError
    import numpy as np
    from repro.experiments.fig6_reference import Fig6Result
    from repro.validation import DifferentialResult

    def mk(name, absolute, relative):
        err = CurveError(name, absolute, relative, np.array([absolute]), np.array([8.0]))
        return DifferentialResult(name, None, None, None, err)

    fig6 = Fig6Result([mk("a", 0.001, 0.05), mk("povray", 0.0001, 2.35)])
    res = fig7_errors.from_fig6(fig6)
    assert res.avg_absolute == pytest.approx(0.00055)
    assert res.worst_relative(1)[0][0] == "povray"
    assert "povray" in res.format()


def test_fig8_result_accessors():
    from repro.core.curves import CurvePoint, PerformanceCurve
    from repro.units import MB

    curve = PerformanceCurve("lbm", [
        CurvePoint(MB // 2, 1.2, 5.0, 0.08, 0.01, 0.0, True, 1),
        CurvePoint(8 * MB, 1.0, 2.5, 0.05, 0.01, 0.0, True, 1),
    ])
    res = fig8_curves.Fig8Result({"lbm": curve})
    assert res.prefetch_factor("lbm") == pytest.approx(8.0)
    assert res.cpi_rise("lbm") == pytest.approx(1.2)
    assert "lbm" in res.format()


def test_table2_summary_math():
    rows = [
        table2_steal.StealRow("a", 5.5, 6.5, 0.05),   # slowdown too high: use 1T
        table2_steal.StealRow("b", 6.0, 7.0, 0.005),  # 2T allowed
    ]
    res = table2_steal.Table2Result(rows=rows)
    s = res.summary()
    assert s["avg_1t"] == pytest.approx(5.75)
    assert s["avg_2t"] == pytest.approx(6.75)
    assert s["avg_rule"] == pytest.approx((5.5 + 7.0) / 2)
    assert s["avg_relaxed"] == pytest.approx(6.75)
    assert res.by_name("a").stolen_1t_mb == 5.5
    with pytest.raises(KeyError):
        res.by_name("zzz")


def test_table3_row_aggregation():
    entries = [
        table3_overhead.BenchmarkOverhead("gcc", "10M", 0.10, 0.02, 0.03),
        table3_overhead.BenchmarkOverhead("povray", "10M", 0.05, 0.01, 0.01),
        table3_overhead.BenchmarkOverhead("gcc", "1B", 0.04, 0.23, 0.30),
        table3_overhead.BenchmarkOverhead("povray", "1B", 0.03, 0.01, 0.02),
    ]
    res = table3_overhead.Table3Result(entries=entries, interval_labels=("10M", "1B"))
    rows = res.rows()
    assert rows[0]["avg_overhead"] == pytest.approx(0.075)
    assert rows[1]["avg_error"] == pytest.approx(0.12)
    assert rows[1]["avg_error_nogcc"] == pytest.approx(0.01)
    assert res.gcc_error("1B") == pytest.approx(0.23)
    with pytest.raises(KeyError):
        res.gcc_error("100M")
    assert "gcc per-interval" in res.format()


# ------------------------------------------------------------------ runall


def test_runall_registry_covers_every_table_and_figure():
    ids = set(EXPERIMENTS)
    assert ids == {
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "table1", "table2", "table3", "conformance",
    }


def test_runall_selected_subset(capsys):
    results = run_all(TINY, only=["table1", "fig3"], echo=lambda *a: None)
    assert set(results) == {"table1", "fig3"}
    assert results["table1"].matches_paper


def test_runall_rejects_unknown_id():
    with pytest.raises(KeyError):
        run_all(TINY, only=["fig99"], echo=lambda *a: None)


def test_runall_main_is_the_experiments_command(tmp_path, capsys):
    from repro.experiments import runall

    report = tmp_path / "report.txt"
    assert runall.main(["--only", "table1", "--seed", "3", "--out", str(report)]) == 0
    text = report.read_text()
    assert "REPRO-BENCH bench=table1" in text
    assert text == capsys.readouterr().out
    # the same parser's one-line errors, exit 2
    assert runall.main(["--only", "fig99"]) == 2
    assert capsys.readouterr().out.startswith("error: --only: unknown experiment id")


def _quiet_run_all(scale, only, **kwargs):
    return run_all(scale, only=only, echo=lambda *a: None, **kwargs)


def test_runall_measures_the_fig6_suite_once(monkeypatch):
    from repro.observability import Telemetry
    from repro.validation import differential

    captured = []
    capture = differential.capture_trace

    def counting_capture(workload, start, stop, *, benchmark):
        captured.append(benchmark)
        return capture(workload, start, stop, benchmark=benchmark)

    monkeypatch.setattr(differential, "capture_trace", counting_capture)
    tel = Telemetry()
    results = _quiet_run_all(TINY, ["fig6", "fig7", "conformance"], telemetry=tel)
    suite = ["povray", "cigar"]  # the reference benchmarks plus Cigar
    # fig7 and conformance are views: one §III-B comparison per benchmark
    assert captured == suite
    measurement = tel.summary(deterministic=True)["measurement"]
    assert measurement["spans"]["validate_benchmark"]["count"] == len(suite)
    assert measurement["counters"]["validation_benchmarks_total"] == len(suite)
    assert results["fig7"].benchmarks == suite
    # the verdict judged from fig6 is the one conformance measures alone
    alone = _quiet_run_all(TINY, ["conformance"])["conformance"]
    assert captured == suite * 2
    assert results["conformance"].to_dict() == alone.to_dict()
    assert results["conformance"].format() == alone.format()


def test_runall_fig7_alone_measures_with_the_given_workers_and_telemetry(monkeypatch):
    from repro.experiments import fig6_reference
    from repro.observability import Telemetry

    fan_out = []
    compare = fig6_reference.differential_compare

    def recording_compare(name, tier, **kwargs):
        fan_out.append(kwargs["workers"])
        return compare(name, tier, **kwargs)

    monkeypatch.setattr(fig6_reference, "differential_compare", recording_compare)
    tel = Telemetry()
    results = _quiet_run_all(TINY, ["fig7"], workers=1, telemetry=tel)
    suite = ["povray", "cigar"]
    assert results["fig7"].benchmarks == suite
    assert fan_out == [1, 1]  # not the scale's default fan-out
    spans = tel.summary(deterministic=True)["measurement"]["spans"]
    assert {"validate_benchmark", "validate_prefix", "validate_pirate"} <= set(spans)
    assert spans["validate_prefix"]["count"] == len(suite)


def test_runall_fig9_reuses_fig8s_lbm_curve(monkeypatch):
    from repro.experiments import common

    runs = []
    measure = common.measure_curve_dynamic

    def recording_measure(factory, sizes_mb, **kwargs):
        runs.append((kwargs["benchmark"], kwargs["config"].prefetch_enabled))
        return measure(factory, sizes_mb, **kwargs)

    monkeypatch.setattr(common, "measure_curve_dynamic", recording_measure)
    scale = dataclasses.replace(TINY, curve_benchmarks=("lbm",))
    results = _quiet_run_all(scale, ["fig8", "fig9"])
    assert sorted(runs) == [("lbm", False), ("lbm", True)]
    assert results["fig9"].with_prefetch is results["fig8"].curves["lbm"]
