"""Bench: the scalar interpreter vs the C hierarchy walk.

Three microbenches, each timing ``CacheHierarchy.access_chunk`` directly so
the numbers isolate the simulation engines from workload generation:

``pirate_sweep``
    the Pirate's private-level-bypass linear sweep — the CI perf-smoke's
    floor on ``auto`` (the C walk) over ``scalar``,
``fig8_gromacs``
    a fig8-shaped co-run: full-path target chunks interleaved with large
    Pirate sweep chunks (the heavy-pirate regime every fig8 point at a
    small target size runs in),
``fig4_seq``
    a fig4-shaped co-run: a sequential-scan microbenchmark target against
    the same Pirate.

Both kernel modes produce bit-identical counters (asserted here), so the
timings compare pure execution cost.  Besides the pytest benches this file
is an executable::

    python benchmarks/bench_kernels.py --quick --json out.json \
        --min-speedup 10

which times scalar and auto per bench, optionally enforces a floor on the
Pirate-sweep ``auto`` speedup (skipped, with the reason printed, where the
C walk cannot load), and emits the JSON payload ``scripts/bench_baseline.py``
archives as ``BENCH_kernels.json``.
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

from repro.caches.hierarchy import CacheHierarchy  # noqa: E402
from repro.config import KERNEL_MODES, nehalem_config  # noqa: E402
from repro.kernels import cext  # noqa: E402
from repro.units import MB  # noqa: E402
from repro.workloads import make_benchmark  # noqa: E402

#: Pirate working-set sizes (lines) chosen so the sweep spans most of the
#: 8MB / 131072-line L3 — large enough that back-invalidation pressure on
#: the target is real, as in the paper's small-size fig8 points.
PIRATE_WS_LINES = 110_000
PIRATE_CHUNK_LINES = 20_000
PIRATE_BASE = 1 << 40


def _pirate_chunks(n_chunks: int) -> list[np.ndarray]:
    """The Pirate's linear sweep, pre-cut into per-quantum chunks."""
    out = []
    pos = 0
    for _ in range(n_chunks):
        arr = np.arange(pos, pos + PIRATE_CHUNK_LINES, dtype=np.int64)
        out.append(arr % PIRATE_WS_LINES + PIRATE_BASE)
        pos += PIRATE_CHUNK_LINES
    return out


def _target_chunks(name: str, n_chunks: int, chunk_lines: int = 800):
    wl = make_benchmark(name)
    return [wl.chunk(chunk_lines) for _ in range(n_chunks)]


def _seq_chunks(n_chunks: int, chunk_lines: int = 800, ws_lines: int = 40_000):
    """fig4-style sequential scan: a strided walk over a ~2.5MB array."""
    out = []
    pos = 0
    for _ in range(n_chunks):
        arr = np.arange(pos, pos + chunk_lines, dtype=np.int64) % ws_lines
        out.append((arr, None))
        pos += chunk_lines
    return out


def _run_corun(mode: str, targets, pirates):
    """One co-run: alternate target (full path) and Pirate (L3-only) chunks.

    Returns ``(seconds, fingerprint)`` where the fingerprint is the flat
    counter tuple of both cores — identical across engine modes by design.
    """
    hier = CacheHierarchy(nehalem_config(kernel=mode))
    t0 = time.perf_counter()
    for (lines, writes), pl in zip(targets, pirates):
        hier.access_chunk(0, lines, writes)
        hier.access_chunk(1, pl, None, bypass_private=True)
    elapsed = time.perf_counter() - t0
    fp = tuple(v for core in hier.totals for v in vars(core).values())
    return elapsed, fp


def _run_pirate_only(mode: str, pirates):
    hier = CacheHierarchy(nehalem_config(kernel=mode))
    t0 = time.perf_counter()
    for pl in pirates:
        hier.access_chunk(1, pl, None, bypass_private=True)
    elapsed = time.perf_counter() - t0
    fp = tuple(vars(hier.totals[1]).values())
    return elapsed, fp


def _time_modes(runner, repeats: int) -> dict:
    """Best-of-``repeats`` wall time per kernel mode.

    Asserts the modes agree on every counter before reporting any
    timing — a fast engine with wrong numbers is not a speedup.
    """
    result = {}
    fingerprints = {}
    for mode in KERNEL_MODES:
        times = []
        for _ in range(repeats):
            elapsed, fp = runner(mode)
            times.append(elapsed)
            fingerprints[mode] = fp
        result[f"{mode}_s"] = round(min(times), 4)
    if fingerprints["scalar"] != fingerprints["auto"]:
        raise AssertionError("kernel modes disagree on counters")
    result["auto_speedup"] = round(result["scalar_s"] / result["auto_s"], 3)
    return result


def collect(quick: bool = True) -> dict:
    """Time every microbench; returns the ``BENCH_kernels.json`` payload."""
    n = 40 if quick else 150
    repeats = 2 if quick else 3
    pirates = _pirate_chunks(n)
    gromacs = _target_chunks("gromacs", n)
    seq = _seq_chunks(n)
    benches = {
        "pirate_sweep": _time_modes(
            lambda mode: _run_pirate_only(mode, pirates), repeats
        ),
        "fig8_gromacs": _time_modes(
            lambda mode: _run_corun(mode, gromacs, pirates), repeats
        ),
        "fig4_seq": _time_modes(lambda mode: _run_corun(mode, seq, pirates), repeats),
    }
    return {
        "meta": {
            "tier": "quick" if quick else "full",
            "pirate_ws_lines": PIRATE_WS_LINES,
            "chunks": n,
            "repeats": repeats,
            "l3_mb": nehalem_config().l3.size / MB,
            "walk": "c" if cext.available() else cext.unavailable_reason(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "benches": benches,
    }


# -- pytest benches -----------------------------------------------------------


@pytest.mark.experiment
def test_kernel_microbenches(run_once):
    payload = run_once(collect, True)
    for name, bench in payload["benches"].items():
        print(
            f"{name}: scalar {bench['scalar_s']}s  "
            f"auto {bench['auto_s']}s ({bench['auto_speedup']}x)"
        )
    # timing floors are CI's perf-smoke business; here only sanity-check
    # that the C walk actually engaged on its home-turf bench
    if cext.available():
        assert payload["benches"]["pirate_sweep"]["auto_speedup"] > 1.0


# -- script mode --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller tier (CI)")
    parser.add_argument("--json", default="", help="write the payload here")
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail unless the Pirate-sweep auto (C walk) speedup over scalar "
        "is >= X (skipped where the C walk cannot load)",
    )
    args = parser.parse_args(argv)
    payload = collect(quick=args.quick)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.json:
        Path(args.json).write_text(text)
        print(f"wrote {args.json}")
    else:
        print(text, end="")
    if args.min_speedup is not None:
        if not cext.available():
            print(
                "skip pirate_sweep floor: auto runs the scalar loops here "
                f"({cext.unavailable_reason()})"
            )
            return 0
        got = payload["benches"]["pirate_sweep"]["auto_speedup"]
        if got < args.min_speedup:
            print(
                f"FAIL pirate_sweep auto speedup {got}x "
                f"< required {args.min_speedup}x"
            )
            return 1
        print(f"ok pirate_sweep auto speedup {got}x >= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
