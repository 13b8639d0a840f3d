"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.faults import CHAOS_ENV, ChaosPlan


class Sink:
    def __init__(self):
        self.lines = []

    def __call__(self, *args):
        self.lines.append(" ".join(str(a) for a in args))

    @property
    def text(self):
        return "\n".join(self.lines)


def test_parser_has_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("list", "curve", "steal", "probe", "bandwidth", "reuse",
                "validate", "experiments", "cache"):
        assert cmd in text


def test_list_command():
    out = Sink()
    assert main(["list"], out=out) == 0
    assert "mcf" in out.text and "429.mcf" in out.text
    assert "cigar" in out.text
    assert out.text.count("\n") >= 28


def test_unknown_benchmark_rejected():
    out = Sink()
    assert main(["curve", "doom"], out=out) == 2
    assert "unknown benchmark" in out.text


def test_curve_command_small():
    out = Sink()
    rc = main(
        ["curve", "povray", "--sizes", "8.0,2.0", "--total", "1200000",
         "--interval", "100000", "--plot"],
        out=out,
    )
    assert rc == 0
    assert "povray" in out.text
    assert "overhead" in out.text
    assert "cpi vs cache size" in out.text  # the plot


def test_probe_command():
    out = Sink()
    rc = main(["probe", "povray", "--interval", "100000"], out=out)
    assert rc == 0
    assert "safe pirate thread count" in out.text


def test_bandwidth_command():
    out = Sink()
    rc = main(
        ["bandwidth", "povray", "--gaps", "20", "--interval", "120000"], out=out
    )
    assert rc == 0
    assert "available off-chip bandwidth" in out.text


def test_reuse_command():
    out = Sink()
    rc = main(
        ["reuse", "povray", "--window", "200000", "--sizes", "0.5,8"], out=out
    )
    assert rc == 0
    assert "reuse-distance model" in out.text
    assert "working-set estimate" in out.text


def test_steal_command_tiny():
    out = Sink()
    rc = main(["steal", "povray", "--interval", "60000"], out=out)
    assert rc == 0
    assert "max stealable" in out.text
    assert "att" in out.text  # the attempts column


def test_curve_command_prints_quality_column():
    out = Sink()
    rc = main(
        ["curve", "povray", "--sizes", "8.0,2.0", "--total", "1200000",
         "--interval", "100000"],
        out=out,
    )
    assert rc == 0
    assert "quality" in out.text and "att" in out.text
    assert "quality: 2 points" in out.text


def test_validate_command_writes_report_and_passes(tmp_path):
    out = Sink()
    report = tmp_path / "conformance_report.json"
    rc = main(
        ["validate", "povray", "--quick", "--sizes", "2.0,8.0",
         "--json", str(report)],
        out=out,
    )
    assert rc == 0
    assert "suite: PASS" in out.text
    assert "povray" in out.text
    import json

    loaded = json.loads(report.read_text())
    assert loaded["passed"] is True
    assert loaded["tier"] == "quick"
    assert [p["size_mb"] for p in loaded["benchmarks"][0]["points"]] == [2.0, 8.0]


def test_validate_failure_exits_one(tmp_path):
    # an absurdly tight bound forces a conformance failure -> exit code 1
    out = Sink()
    rc = main(
        ["validate", "gromacs", "--sizes", "2.0,8.0", "--bound", "1e-9"],
        out=out,
    )
    assert rc == 1
    assert "suite: FAIL" in out.text


def test_validate_telemetry_export(tmp_path):
    out = Sink()
    stream = tmp_path / "run.jsonl"
    rc = main(
        ["validate", "povray", "--sizes", "8.0", "--telemetry", str(stream)],
        out=out,
    )
    assert rc == 0
    assert stream.exists()
    assert "telemetry:" in out.text


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["curve", "povray", "--sizes", "0"], "must be positive"),
        (["curve", "povray", "--sizes", "-2.0"], "must be positive"),
        (["curve", "povray", "--sizes", "junk"], "not a number"),
        (["curve", "povray", "--sizes", "9.5"], "exceeds the 8MB L3"),
        (["curve", "povray", "--sizes", ","], "at least one size"),
        (["curve", "povray", "--total", "-5"], "--total must be positive"),
        (["curve", "povray", "--interval", "0"], "--interval must be positive"),
        (["curve", "povray", "--retries", "-1"], "--retries must be >= 0"),
        (["steal", "povray", "--threads", "0"], "--threads must be >= 1"),
        (["steal", "povray", "--interval", "-1"], "--interval must be positive"),
        (["probe", "povray", "--max-threads", "0"], "--max-threads must be >= 1"),
        (["bandwidth", "povray", "--gaps", "junk"], "--gaps"),
        (["bandwidth", "povray", "--gaps", "-3"], "must be positive"),
        (["bandwidth", "povray", "--gaps", ","], "at least one"),
        (["reuse", "povray", "--window", "0"], "--window must be positive"),
        (["reuse", "povray", "--sizes", "nan_mb"], "not a number"),
        (["validate", "--quick", "--full"], "mutually exclusive"),
        (["validate", "--serial", "--workers", "2"], "--serial conflicts"),
        (["validate", "--workers", "-1"], "--workers must be >= 0"),
        (["validate", "--sizes", "-2"], "must be positive"),
        (["validate", "--sizes", "1.7"], "whole number of 0.5MB ways"),
        (["validate", "--sizes", "9.5"], "exceeds the 8MB L3"),
        (["validate", "--bound", "0"], "--bound must be in (0, 1)"),
        (["validate", "--bound", "1.5"], "--bound must be in (0, 1)"),
        (["validate", "doom"], "unknown benchmark"),
        (["sweep", "povray", "--serial", "--workers", "3"], "--serial conflicts"),
        (["experiments", "--serial", "--workers", "2"], "--serial conflicts"),
        (["sweep", "povray", "--interval", "0"], "--interval: interval_instructions"),
        (["sweep", "povray", "--interval", "inf"], "--interval: interval_instructions"),
        (["sweep", "povray", "--intervals", "0"], "--intervals: n_intervals"),
        (["sweep", "povray", "--sizes", "9.5"], "--sizes: sizes_mb: 9.5MB exceeds the 8MB L3"),
        (["sweep", "povray", "--sizes", "0"], "--sizes: sizes_mb must hold finite numbers > 0"),
    ],
)
def test_bad_arguments_fail_fast_with_one_line_error(argv, fragment):
    out = Sink()
    assert main(argv, out=out) == 2
    assert len(out.lines) == 1
    assert out.lines[0].startswith("error: ")
    assert fragment in out.lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "povray", "--interval", "inf"],
        ["curve", "povray", "--interval", "inf"],
        ["curve", "povray", "--total", "inf"],
        ["steal", "povray", "--interval", "inf"],
        ["bandwidth", "povray", "--interval", "inf"],
        ["reuse", "povray", "--window", "inf"],
        ["sweep", "povray", "--sizes", "8", "--point-timeout", "inf"],
        ["serve", "--state-dir", "STATE", "--socket", "STATE/s.sock",
         "--point-timeout", "inf"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_infinite_counts_and_timeouts_are_refused(tmp_path, argv):
    """An infinite interval, total, window or timeout would run forever."""
    argv = [a.replace("STATE", str(tmp_path)) for a in argv]
    out = Sink()
    assert main(argv, out=out) == 2
    assert len(out.lines) == 1
    assert out.lines[0].startswith("error: ")
    assert argv[-2] + " must be positive and finite, got inf" in out.lines[0]


def test_serial_flag_alone_is_accepted():
    out = Sink()
    rc = main(
        ["sweep", "povray", "--serial", "--sizes", "8.0",
         "--interval", "60000", "--intervals", "1"],
        out=out,
    )
    assert rc == 0


# -- supervision / durability / cache maintenance (PR 6) ---------------------------


SWEEP_FAST = ["sweep", "povray", "--sizes", "8.0,4.0",
              "--interval", "20000", "--intervals", "1"]


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (SWEEP_FAST + ["--resume", "abc123"], "--resume needs --journal-dir"),
        (SWEEP_FAST + ["--journal-dir", "/tmp/j", "--resume", "a", "--run-id", "b"],
         "conflicts with --run-id"),
        (SWEEP_FAST + ["--point-timeout", "0"], "--point-timeout must be positive"),
        (SWEEP_FAST + ["--max-point-failures", "0"],
         "--max-point-failures must be >= 1"),
        (["cache", "verify", "/nonexistent/cache/dir"], "no such cache directory"),
    ],
)
def test_supervision_flag_errors_fail_fast(argv, fragment):
    out = Sink()
    assert main(argv, out=out) == 2
    assert fragment in out.text


def test_supervised_sweep_with_journal_and_resume(tmp_path):
    journal = str(tmp_path / "journal")
    out = Sink()
    argv = SWEEP_FAST + ["--journal-dir", journal, "--run-id", "cli1"]
    assert main(argv, out=out) == 0
    assert "journal run id: cli1" in out.text
    assert "povray" in out.text

    resumed = Sink()
    assert main(SWEEP_FAST + ["--journal-dir", journal, "--resume", "cli1"],
                out=resumed) == 0
    # the resumed table is identical to the original run's
    assert [l for l in resumed.lines if l.startswith("  ")] == \
           [l for l in out.lines if l.startswith("  ")]


def test_sweep_under_chaos_env_recovers_or_quarantines(monkeypatch):
    """``REPRO_CHAOS`` reaches a supervised CLI sweep: a point erroring
    once recovers bit-identical, one erroring past the budget is quarantined."""
    clean = Sink()
    assert main(SWEEP_FAST + ["--supervise"], out=clean) == 0
    monkeypatch.setenv(CHAOS_ENV, ChaosPlan(errors={0: (1,), 1: (1, 2)}).to_json())
    out = Sink()
    assert main(SWEEP_FAST + ["--supervise"], out=out) == 0
    def table(sink):  # size -> row, for the curve table's data rows
        return {l.split()[0]: l for l in sink.text.splitlines() if l[:6].strip()[:1].isdigit()}

    rows = table(out)
    assert set(rows) == {"8.0"}
    assert rows["8.0"].startswith(table(clean)["8.0"])
    assert "1 failed" in out.text and "quarantined" in out.text


def test_supervised_sweep_reports_retries_and_counts_every_point(monkeypatch):
    """Point 0 errors once and recovers, point 1 errors past the budget:
    the summary counts both points and the stats line shows the retries."""
    monkeypatch.setenv(CHAOS_ENV, '{"errors": {"0": [1], "1": [1, 2]}}')
    out = Sink()
    assert main(SWEEP_FAST + ["--supervise"], out=out) == 0
    assert "quality: 2 points — 1 clean, 0 recovered by retry, 0 degraded, 1 failed" in out.text
    (stats,) = [l for l in out.lines if l.startswith("sweep: ")]
    assert stats == "sweep: measured=1 cache=0 journal=0 retries=2 quarantined=1"


def test_supervised_sweep_counts_supervisor_attempts_in_att(monkeypatch):
    """The 8.0 MB point errors once and is measured on its second
    supervisor attempt: its row reads att 2, the 4.0 MB point is quarantined."""
    monkeypatch.setenv(CHAOS_ENV, '{"errors": {"0": [1], "1": [1, 2]}}')
    out = Sink()
    assert main(SWEEP_FAST + ["--supervise"], out=out) == 0
    rows = [l.split() for l in out.text.splitlines() if l.split()[:1] == ["8.0"]]
    assert [row[-2:] for row in rows] == [["2", "ok"]]


def test_sweep_payloads_of_first_attempt_points_ignore_supervision(monkeypatch):
    """A point measured on its first attempt stores the same payload
    whether or not another point of its sweep was retried."""
    from repro.config import nehalem_config
    from repro.core.parallel import SupervisorPolicy, SweepSpec, result_to_payload, run_sweep
    from repro.workloads import TargetSpec

    spec = SweepSpec(
        target=TargetSpec(kind="benchmark", name="povray"), benchmark="povray",
        config=nehalem_config(), interval_instructions=20_000.0, n_intervals=1,
    )
    clean, _ = run_sweep(spec, [8.0, 4.0], workers=0)
    monkeypatch.setenv(CHAOS_ENV, '{"errors": {"0": [1]}}')
    retried, stats = run_sweep(spec, [8.0, 4.0], workers=0, policy=SupervisorPolicy())
    assert stats.retries == 1
    by_index = {r.index: r for r in retried}
    assert by_index[0].attempts == 2 and by_index[1].attempts == 1
    assert result_to_payload(by_index[1]) == result_to_payload(clean[1])


def test_sweep_with_every_point_quarantined_prints_one_error_line(monkeypatch):
    monkeypatch.setenv(
        CHAOS_ENV, ChaosPlan.random(3, seed=1, kill_rate=1.0, repeats=9).to_json()
    )
    out = Sink()
    argv = ["sweep", "mcf", "--sizes", "2,4,8", "--interval", "60000",
            "--intervals", "1", "--workers", "2", "--supervise"]
    assert main(argv, out=out) == 1
    errors = [l for l in out.lines if l.startswith("error:")]
    assert errors == ["error: mcf: all 3 points were quarantined; no curve to assemble"]
    assert "Traceback" not in out.text


@pytest.mark.parametrize(
    "extra",
    [["--engine", "surrogate", "--journal-dir", "JOURNAL"]],
    ids=["surrogate-journal"],
)
def test_sweep_engine_clash_fails_before_any_echo(tmp_path, extra):
    """An analytic engine with supervision is refused before the sweep
    prints a journal run id, and writes no journal."""
    journal = tmp_path / "journal"
    out = Sink()
    argv = ["sweep", "mcf", "--sizes", "8", "--interval", "60000", "--intervals", "1"]
    argv += [str(journal) if a == "JOURNAL" else a for a in extra]
    assert main(argv, out=out) == 2
    assert len(out.lines) == 1 and out.lines[0].startswith("error: "), out.lines
    assert "conflicts with supervision" in out.text
    assert "journal run id:" not in out.text and "chaos plan" not in out.text
    assert not journal.exists()


def test_cache_cli_verify_repair_gc_cycle(tmp_path):
    from repro.faults.chaos import corrupt_cache_entries

    cache_dir = str(tmp_path / "cache")
    assert main(SWEEP_FAST + ["--cache-dir", cache_dir], out=Sink()) == 0

    out = Sink()
    assert main(["cache", "verify", cache_dir], out=out) == 0
    assert "2 ok, 0 corrupt" in out.text

    corrupt_cache_entries(cache_dir, seed=1, count=1, mode="tamper")
    out = Sink()
    assert main(["cache", "verify", cache_dir], out=out) == 1
    assert "1 corrupt" in out.text

    out = Sink()
    assert main(["cache", "repair", cache_dir], out=out) == 0
    assert "quarantined 1 corrupt entry" in out.text
    assert main(["cache", "verify", cache_dir], out=Sink()) == 0

    out = Sink()
    assert main(["cache", "gc", cache_dir], out=out) == 0
    assert "removed 1 file(s)" in out.text
