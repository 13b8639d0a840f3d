#!/usr/bin/env python3
"""Kernel-mode matrix: ``sweep`` and ``validate`` under every kernel mode.

Informational, not gated.  Runs a fixed slice of each workload once under
each value of ``KERNEL_MODES``, serially (``workers=0``) and on a process
pool (``workers=nproc``), prints the host seconds as a table, and exits
non-zero unless every cell of a workload produced the same simulated
outcome (all modes are meant to be bit-identical to the scalar oracle).

    python3 perfbench/matrix.py --seed 1

The ``sweep`` slice is four full sweeps (four sizes each) through
``run_sweep``, so ``workers=nproc`` really fans points out and shows how
each mode uses the pool; the ``validate`` slice is four differential
comparisons, whose per-size Pirate runs use the pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import SRC, WORK_ROOT, hermetic_environment

SWEEPS = 4
SIZES_PER_SWEEP = 4
VALIDATIONS = 4


def sweep_slice(load, config, workers: int) -> list[str]:
    from repro.core import parallel

    out = []
    sizes = load.p["sizes_mb"]
    for i in range(SWEEPS):
        spec, _ = load.point(i, config)
        picked = [sizes[(i + j * len(sizes) // SIZES_PER_SWEEP) % len(sizes)]
                  for j in range(SIZES_PER_SWEEP)]
        results, _ = parallel.run_sweep(spec, picked, workers=workers)
        out += [
            json.dumps(parallel.result_to_payload(r), sort_keys=True)
            for r in sorted(results, key=lambda r: r.index)
        ]
    return out


def validate_slice(load, config, workers: int) -> list[str]:
    return [
        json.dumps(load.run_op(i, config, workers).to_dict(), sort_keys=True)
        for i in range(VALIDATIONS)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="matrix-", dir=WORK_ROOT))
    try:
        hermetic_environment(work)
        sys.path.insert(0, str(SRC))
        return run_matrix(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_matrix(seed: int) -> int:
    from dataclasses import replace

    import suite
    from repro.config import KERNEL_MODES, nehalem_config
    from repro.kernels import cext

    spec = json.loads((Path(__file__).parent / "spec.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    lowering = "c" if cext.load() is not None else "python"
    print(f"kernel-mode matrix seed={seed} lowering={lowering} nproc={nproc}")
    print(f"{'workload':9s} {'mode':7s} {'workers':>7s} {'seconds':>8s}  digest")
    slices = {
        "sweep": (sweep_slice, nehalem_config()),
        "validate": (validate_slice, nehalem_config(prefetch_enabled=False)),
    }
    agree = True
    for name, (run_slice, base) in slices.items():
        load = suite.LOADS[name](spec["workloads"][name], seed, nproc=nproc, plant=None)
        digests = set()
        for mode in KERNEL_MODES:
            for workers in (0, nproc):
                t0 = time.perf_counter()
                outs = run_slice(load, replace(base, kernel=mode), workers)
                seconds = time.perf_counter() - t0
                h = hashlib.sha256("\n".join(outs).encode()).hexdigest()[:16]
                digests.add(h)
                print(f"{name:9s} {mode:7s} {workers:7d} {seconds:8.2f}  {h}", flush=True)
        if len(digests) != 1:
            agree = False
            print(f"{name}: simulated outcomes differ across modes/workers")
    print("simulated outcomes agree across every mode and worker count"
          if agree else "MISMATCH")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
