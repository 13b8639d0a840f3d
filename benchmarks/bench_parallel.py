"""Bench: the parallel sweep executor vs a serial run of the same sweep.

A 15-point fixed-size sweep (the FULL grid minus one point) is measured
serially and through the process pool.  On a multi-core host the 4-worker
run must finish at least 2x faster; on single-core CI containers the
speedup assertion is skipped (there is nothing to parallelize onto) and
the bench only checks the executor's real invariant — identical results.
"""

import os
import time

import pytest

from repro.analysis.merge import assemble_curve
from repro.config import nehalem_config
from repro.core.parallel import SweepSpec, run_sweep
from repro.workloads import TargetSpec

SIZES = [0.5 * k for k in range(2, 17)]  # 1.0 .. 8.0 MB, 15 points


def _spec() -> SweepSpec:
    return SweepSpec(
        target=TargetSpec(kind="micro.random", working_set_mb=3.0, seed=7),
        benchmark="bench.parallel",
        config=nehalem_config(),
        interval_instructions=120_000.0,
        n_intervals=1,
        seed=11,
    )


def _rows(results):
    return assemble_curve("b", results, nehalem_config().core.clock_hz).to_rows()


@pytest.mark.experiment
def test_parallel_sweep_speedup(run_once):
    t0 = time.perf_counter()
    serial, _ = run_sweep(_spec(), SIZES, workers=0)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled, _ = run_sweep(_spec(), SIZES, workers=4)
    pooled_s = time.perf_counter() - t0

    # time one more pooled run under the benchmark timer for the report
    run_once(run_sweep, _spec(), SIZES, workers=4)

    speedup = serial_s / pooled_s if pooled_s else float("inf")
    print()
    print(
        f"15-point sweep: serial {serial_s:.2f}s, 4 workers {pooled_s:.2f}s "
        f"({speedup:.2f}x, one point per task, {os.cpu_count()} cpus)"
    )

    assert _rows(pooled) == _rows(serial)
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with 4 workers on {os.cpu_count()} cpus, "
            f"got {speedup:.2f}x"
        )
    else:
        print("single/dual-core host: speedup assertion skipped")
