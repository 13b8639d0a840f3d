"""Telemetry threaded through the measurement engine: end-to-end contracts.

* **Differential**: deep steals leave the Pirate hot in a resilient sweep;
  serial and 4-worker runs must recover the *same* curve with the *same*
  retry and degradation accounting — events, counters, per-point quality,
  all of it.
* **Regression**: ``workers=1`` stays on the in-process path (zero pool
  spawns in the telemetry), produces the serial curve bit-for-bit, and
  still matches the checked-in ``fixed_curve`` golden.
* **Observer effect**: enabling telemetry changes no measured value and no
  sweep-cache key.
* **CLI**: ``repro sweep --telemetry`` leaves a parseable JSONL artifact
  (plus summary sibling) that ``repro stats`` renders.
"""

import json

from repro.cli import main
from repro.core import measure_curve_fixed
from repro.core.resilience import PartialCurve, RetryPolicy
from repro.observability import Telemetry, read_jsonl, summarize
from repro.workloads import TargetSpec
from tests.golden_scenarios import fixed_curve_scenario
from tests.test_golden import assert_matches_golden

TARGET = TargetSpec(kind="micro.random", working_set_mb=0.75, seed=7)
SIZES = [1.0, 1.8, 2.6, 3.4]

#: a 3MB random working set leaves the Pirate hot at the 2.0 and 2.5MB
#: points (6 and 5.5MB steals) until the retry engine's settle co-run
HOT_TARGET = TargetSpec(kind="micro.random", working_set_mb=3.0, seed=7)
HOT_SIZES = [2.0, 2.5, 3.0, 4.0]


def _resilient_sweep(workers):
    tel = Telemetry()
    curve = measure_curve_fixed(
        HOT_TARGET, HOT_SIZES,
        benchmark="tel.faulted",
        interval_instructions=60_000.0, n_intervals=1,
        warmup_instructions=200_000.0, seed=3,
        retry=RetryPolicy(max_attempts=5, degrade_after_attempt=10 ** 6),
        workers=workers,
        telemetry=tel,
    )
    return curve, tel.summary(deterministic=True)


def test_faulted_sweep_serial_vs_parallel_accounting_matches():
    serial_curve, serial = _resilient_sweep(workers=0)
    pooled_curve, pooled = _resilient_sweep(workers=4)

    assert isinstance(serial_curve, PartialCurve)
    assert isinstance(pooled_curve, PartialCurve)
    # the recovered curves agree bit-for-bit, quality metadata included
    assert pooled_curve.to_rows() == serial_curve.to_rows()
    assert set(pooled_curve.quality) == set(serial_curve.quality)
    for key, q in serial_curve.quality.items():
        p = pooled_curve.quality[key]
        assert (p.attempts, p.reasons, p.measured_mb, p.valid) == (
            q.attempts, q.reasons, q.measured_mb, q.valid
        )

    # the hot Pirate actually bit: the retry engine ran and said so
    meas = serial["measurement"]
    assert meas["counters"]["retries_total"] >= 1.0
    assert meas["events"]["retry_escalation"] == meas["counters"]["retries_total"]
    assert meas["counters"]["invalid_intervals_total"] >= 1.0

    # and the accounting is execution-order independent
    assert pooled["measurement"] == meas


def test_single_worker_run_spawns_no_pool_and_matches_serial():
    def run(workers):
        tel = Telemetry()
        curve = measure_curve_fixed(
            TARGET, SIZES[:3],
            benchmark="tel.one",
            interval_instructions=40_000.0, n_intervals=1,
            seed=11, workers=workers, telemetry=tel,
        )
        return curve, tel.summary(deterministic=True)

    serial_curve, serial = run(0)
    one_curve, one = run(1)
    assert one_curve.to_rows() == serial_curve.to_rows()
    assert one == serial
    assert "exec_pool_spawns_total" not in one["execution"]["counters"]
    assert "exec_pool" not in one["execution"]["spans"]


def test_single_worker_run_matches_the_checked_in_golden():
    assert_matches_golden("fixed_curve", fixed_curve_scenario(workers=1))


def test_telemetry_changes_no_measured_value(tmp_path):
    kwargs = dict(
        benchmark="tel.noop",
        interval_instructions=40_000.0, n_intervals=1, seed=11,
    )
    plain = measure_curve_fixed(TARGET, SIZES[:2], **kwargs)
    observed = measure_curve_fixed(
        TARGET, SIZES[:2], telemetry=Telemetry(), **kwargs
    )
    assert observed.to_rows() == plain.to_rows()

    # the telemetry flag is not part of the cache key: a sweep cached
    # without telemetry is fully reused by an instrumented re-run
    cache = tmp_path / "cache"
    measure_curve_fixed(TARGET, SIZES[:2], cache_dir=cache, **kwargs)
    tel = Telemetry()
    cached = measure_curve_fixed(
        TARGET, SIZES[:2], cache_dir=cache, telemetry=tel, **kwargs
    )
    assert cached.to_rows() == plain.to_rows()
    assert tel.metrics.counter_value("cache_hits_total") == len(SIZES[:2])
    assert tel.metrics.counter_value("cache_misses_total") == 0.0


class Sink:
    def __init__(self):
        self.lines = []

    def __call__(self, *args):
        self.lines.append(" ".join(str(a) for a in args))

    @property
    def text(self):
        return "\n".join(self.lines)


def test_cli_sweep_telemetry_artifact_round_trips(tmp_path):
    path = tmp_path / "run.jsonl"
    out = Sink()
    rc = main(
        ["sweep", "povray", "--sizes", "8.0,2.0", "--interval", "30000",
         "--intervals", "1", "--telemetry", str(path)],
        out=out,
    )
    assert rc == 0
    assert str(path) in out.text

    records, registry = read_jsonl(path)
    assert registry.counter_value("intervals_total") >= 2.0
    summary = summarize((records, registry))
    assert summary["measurement"]["spans"]["point"]["count"] == 2

    sidecar = json.loads(
        (tmp_path / "run.jsonl.summary.json").read_text()
    )
    assert sidecar["measurement"] == json.loads(
        json.dumps(summary["measurement"])
    )

    stats_out = Sink()
    assert main(["stats", str(path)], out=stats_out) == 0
    assert "telemetry run report" in stats_out.text
    assert "intervals_total" in stats_out.text

    json_out = Sink()
    assert main(["stats", str(path), "--json"], out=json_out) == 0
    assert json.loads(json_out.text)["schema"] == summary["schema"]


def test_cli_stats_rejects_missing_and_malformed_files(tmp_path):
    out = Sink()
    assert main(["stats", str(tmp_path / "absent.jsonl")], out=out) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n")
    out2 = Sink()
    assert main(["stats", str(bad)], out=out2) == 2
    assert "not JSON" in out2.text
