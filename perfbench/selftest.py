#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs of every workload plus planted
defects that the output checks must report as failed operations.

    python3 perfbench/selftest.py

Checks, each printed as ``ok``/``FAIL``:

* every workload, untraced and traced, at ``--tiny`` size: correct, no
  failed operation, every metric named in ``BENCHMARK.json`` present;
* traced and untraced runs of one seed print the same simulated-outcome
  digest;
* a planted scalar-oracle mismatch (``sweep``) and a tampered store entry
  (``grid-warm``) each come out as failed operations;
* without the package source next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK_ROOT

HERE = Path(__file__).resolve().parent
SECONDS = "2"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args, "--seconds", SECONDS],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    return out.returncode, out.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def digest_of(lines: list[str]) -> list[str]:
    for line in lines:
        if line.startswith("# digest="):
            return line.split("=", 1)[1].split(" (")[0].split()
    return []


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in contract["end_to_end"]],
        1: [m["name"] for m in contract["per_layer"]],
    }
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            failures.append(what)

    for wl in (w["name"] for w in contract["workloads"]):
        digests = {}
        for trace in (0, 1):
            rc, lines = bench("--workload", wl, "--seed", "3", "--trace", str(trace), "--tiny")
            res = result_of(lines)
            what = f"{wl} trace={trace}"
            expect(rc == 0 and res is not None, f"{what}: exits 0 with a result")
            if res is None:
                continue
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: correct, 0 failed of {res['attempted']}")
            missing = [n for n in names[trace] if n not in res["metrics"]]
            expect(not missing, f"{what}: every metric reported {missing or ''}")
            digests[trace] = digest_of(lines)
        flat = [d for ds in digests.values() for d in ds]
        expect(len(flat) == 3 and len(set(flat)) == 1,
               f"{wl}: traced and untraced digests agree {flat}")

    for wl, plant in (("sweep", "scalar-mismatch"), ("grid-warm", "tamper-store")):
        rc, lines = bench("--workload", wl, "--seed", "3", "--tiny", "--plant", plant)
        res = result_of(lines) or {}
        expect(rc == 0 and res.get("failed", 0) >= 1 and res.get("correct") is False,
               f"{wl} --plant {plant}: reported as {res.get('failed')} failed op(s)")

    WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench("--workload", "sweep", "--seed", "1", cwd=bare)
        expect(rc != 0 and result_of(lines) is None,
               f"without the package: exit {rc}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
