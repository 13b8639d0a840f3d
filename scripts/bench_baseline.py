#!/usr/bin/env python
"""Record the kernel-benchmark baseline as ``BENCH_kernels.json``.

Runs the scalar/auto microbenches from
``benchmarks/bench_kernels.py`` plus the end-to-end surrogate-vs-measured
curve bench from ``benchmarks/bench_surrogate.py`` (archived under the
``surrogate_curve`` key) and writes the payload to the repository root
(or ``--out``).  The checked-in file is the perf trajectory's anchor:
re-run after any engine change and review the speedup deltas like any other
regression diff.

    python scripts/bench_baseline.py --quick

``--check-speedup X`` additionally fails the run if the Pirate-sweep
``auto`` (C walk) speedup over ``scalar`` fell below ``X`` (what the CI
perf-smoke enforces; skipped where the C walk cannot load).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from bench_kernels import collect  # noqa: E402
from bench_surrogate import collect as collect_surrogate  # noqa: E402

from repro.kernels import cext  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller tier (CI)")
    parser.add_argument(
        "--out", default=str(REPO / "BENCH_kernels.json"),
        help="output path (default: repo root)",
    )
    parser.add_argument(
        "--check-speedup", type=float, default=None, metavar="X",
        help="fail unless the Pirate-sweep auto speedup over scalar is >= X",
    )
    args = parser.parse_args(argv)
    payload = collect(quick=args.quick)
    payload["surrogate_curve"] = collect_surrogate(quick=args.quick)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name, bench in payload["benches"].items():
        print(
            f"  {name}: scalar {bench['scalar_s']}s  auto {bench['auto_s']}s "
            f"({bench['auto_speedup']}x)"
        )
    sc = payload["surrogate_curve"]["bench"]
    print(
        f"  surrogate_curve: measured {sc['measured_s']}s  "
        f"surrogate {sc['surrogate_s']}s ({sc['surrogate_speedup']}x)  "
        f"auto {sc['auto_s']}s ({sc['auto_speedup']}x)"
    )
    if args.check_speedup is not None:
        if not cext.available():
            print(f"skip pirate_sweep floor: {cext.unavailable_reason()}")
            return 0
        got = payload["benches"]["pirate_sweep"]["auto_speedup"]
        if got < args.check_speedup:
            print(f"FAIL pirate_sweep auto speedup {got}x < {args.check_speedup}x")
            return 1
        print(f"ok pirate_sweep auto speedup {got}x >= {args.check_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
