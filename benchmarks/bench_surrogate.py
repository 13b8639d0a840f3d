"""Bench: analytic surrogate engine vs the measured sweep.

One end-to-end fetch-ratio curve on ``gromacs`` (a benchmark-suite target,
not a microbenchmark), timed three ways:

``measure``
    the bit-exact simulator sweep under the default kernel mode (the C
    hierarchy walk) — the engine every other number in the repo comes
    from,
``surrogate``
    one trace profile + a reuse-distance histogram, then every size
    answered analytically in O(trace),
``auto``
    the surrogate with grey sizes escalated to the measured engine
    (on this curve the knee sizes escalate, the rest stay analytic).

The surrogate's claim is *throughput*, not exactness — its accuracy gate
is the conformance grader (``repro validate --engine surrogate``), so this
bench only sanity-checks the curve shapes (monotone fetch counts) and
reports wall time; CI runs it report-only.  Script mode::

    python benchmarks/bench_surrogate.py --quick --json out.json

emits the JSON payload ``scripts/bench_baseline.py`` archives under the
``surrogate_curve`` key of ``BENCH_kernels.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # script mode: make src/ importable from anywhere
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import nehalem_config  # noqa: E402
from repro.core import measure_curve_fixed  # noqa: E402
from repro.units import MB  # noqa: E402
from repro.workloads import benchmark_target  # noqa: E402

#: the measured sweep's cost scales with sizes x intervals; the surrogate
#: profiles once and answers every size from the histogram, so a denser
#: grid only widens its advantage — this grid matches fig8's quick tier
SIZES_MB = [8.0, 6.0, 4.0, 3.0, 2.0, 1.0]
BENCHMARK = "gromacs"


def _time_curve(engine: str, *, quick: bool) -> tuple[float, object]:
    # both tiers run the harness default interval (1M instructions) — the
    # regime the speedup claim is about: the measured engine pays
    # O(interval x sizes), the surrogate one fixed-size profile.  quick
    # only drops to one interval per point
    kwargs = dict(
        benchmark=BENCHMARK,
        n_intervals=1 if quick else 2,
        seed=11,
    )
    t0 = time.perf_counter()
    curve = measure_curve_fixed(
        benchmark_target(BENCHMARK, seed=7), SIZES_MB, engine=engine, **kwargs
    )
    return time.perf_counter() - t0, curve


def collect(quick: bool = True) -> dict:
    """Time the three engines; returns the ``surrogate_curve`` payload."""
    times = {}
    curves = {}
    for engine in ("measure", "surrogate", "auto"):
        elapsed, curve = _time_curve(engine, quick=quick)
        times[engine] = elapsed
        curves[engine] = curve
    # monotone-in-capacity is the analytic tier's invariant (the measured
    # engine carries real run-to-run noise on near-flat curves, so only the
    # surrogate's shape is checked here)
    ratios = [r["fetch_ratio"] for r in curves["surrogate"].to_rows()]
    if not all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:])):
        raise AssertionError(f"surrogate curve is not monotone: {ratios}")
    bench = {
        "measured_s": round(times["measure"], 4),
        "surrogate_s": round(times["surrogate"], 4),
        "auto_s": round(times["auto"], 4),
        "surrogate_speedup": round(times["measure"] / times["surrogate"], 3),
        "auto_speedup": round(times["measure"] / times["auto"], 3),
    }
    return {
        "meta": {
            "tier": "quick" if quick else "full",
            "benchmark": BENCHMARK,
            "sizes_mb": SIZES_MB,
            "l3_mb": nehalem_config().l3.size / MB,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "bench": bench,
    }


# -- pytest bench -------------------------------------------------------------


@pytest.mark.experiment
def test_surrogate_curve_bench(run_once):
    payload = run_once(collect, True)
    bench = payload["bench"]
    print(
        f"surrogate_curve: measured {bench['measured_s']}s  "
        f"surrogate {bench['surrogate_s']}s ({bench['surrogate_speedup']}x)  "
        f"auto {bench['auto_s']}s ({bench['auto_speedup']}x)"
    )
    # timing floors are CI's perf-smoke business; here only sanity-check
    # that the analytic path actually skipped the per-size simulations
    assert bench["surrogate_speedup"] > 1.0


# -- script mode --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller tier (CI)")
    parser.add_argument("--json", default="", help="write the payload here")
    args = parser.parse_args(argv)
    payload = collect(quick=args.quick)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.json:
        Path(args.json).write_text(text)
        print(f"wrote {args.json}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
