#!/usr/bin/env python3
"""Calibration harness: solo-run benchmarks across L3 sizes.

Runs each named benchmark alone on machines whose L3 associativity is reduced
(the same way-stealing geometry the Pirate induces), with a warm-up period
excluded from measurement, and prints the steady-state operating points used
to calibrate ``repro.workloads.spec`` against the paper's figures.

Usage: python scripts/calibrate.py [bench ...] [--sizes 8,2,0.5] [--instr 3e6]
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from repro.config import nehalem_config
from repro.hardware.machine import Goal, Machine
from repro.units import MB
from repro.workloads import BENCHMARK_NAMES, make_benchmark, make_cigar


def run_point(name: str, size_mb: float, instructions: float, warmup: float, seed: int = 1):
    cfg = nehalem_config(num_cores=1)
    ways = max(int(round(size_mb * 2)), 1)  # 0.5MB per way
    cfg = replace(cfg, l3=cfg.l3.with_ways(ways))
    m = Machine(cfg)
    wl = make_cigar(seed=seed) if name == "cigar" else make_benchmark(name, seed=seed)
    t = m.add_thread(wl, core=0, instruction_limit=warmup + instructions)
    m.run(Goal(t, warmup))
    before = m.counters.sample(0)
    m.run()
    d = m.counters.sample(0).delta(before)
    return d


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("benchmarks", nargs="*", default=[])
    ap.add_argument("--sizes", default="8,2,0.5")
    ap.add_argument("--instr", type=float, default=3e6)
    ap.add_argument("--warmup", type=float, default=1.5e6)
    args = ap.parse_args(argv)

    names = args.benchmarks or list(BENCHMARK_NAMES) + ["cigar"]
    sizes = [float(s) for s in args.sizes.split(",")]
    clock = nehalem_config().core.clock_hz

    print(f"{'bench':12s} {'MB':>5s} {'CPI':>6s} {'FR%':>8s} {'MR%':>8s} {'BW GB/s':>8s} {'f/m':>5s}")
    for name in names:
        t0 = time.perf_counter()
        for size in sizes:
            d = run_point(name, size, args.instr, args.warmup)
            fm = d.l3_fetches / d.l3_misses if d.l3_misses else float("inf")
            print(
                f"{name:12s} {size:5.1f} {d.cpi:6.2f} {d.fetch_ratio*100:8.3f} "
                f"{d.miss_ratio*100:8.3f} {d.bandwidth_gbps(clock):8.2f} {fm:5.1f}"
            )
        print(f"{'':12s} ({time.perf_counter()-t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
