#!/usr/bin/env python
"""Regenerate (or verify) the golden-regression fixtures in tests/goldens/.

Run from the repository root after any *intentional* change to measured
numbers (new seed derivation, simulator fix, counter semantics):

    python scripts/regen_goldens.py

then review the diff — every changed number should be explainable by the
change you made.  ``tests/test_golden.py`` compares against these files
bit-for-bit.

CI runs ``python scripts/regen_goldens.py --check``, which recomputes every
scenario and exits non-zero if any checked-in golden differs (or is
missing) *without writing anything* — catching the "changed the numbers,
forgot to regenerate" mistake before the golden test's slower diff does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.config import KERNEL_MODES  # noqa: E402
from tests.golden_scenarios import SCENARIOS  # noqa: E402


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify goldens match recomputed scenarios; write nothing, "
        "exit 1 on drift",
    )
    parser.add_argument(
        "--kernel",
        default=None,
        choices=KERNEL_MODES,
        help="force a simulation-kernel mode for every scenario via "
        "REPRO_KERNEL; with --check this proves the chosen engine "
        "reproduces the checked-in goldens bit-for-bit",
    )
    args = parser.parse_args(argv)
    if args.kernel is not None:
        # scenario configs are built lazily inside each build(), so setting
        # the env here reaches every MachineConfig construction site
        os.environ["REPRO_KERNEL"] = args.kernel

    out_dir = REPO / "tests" / "goldens"
    out_dir.mkdir(parents=True, exist_ok=True)
    drifted = []
    for stem, build in SCENARIOS.items():
        path = out_dir / f"{stem}.json"
        rendered = _render(build())
        if args.check:
            if not path.exists():
                print(f"MISSING {path.relative_to(REPO)}")
                drifted.append(stem)
            elif path.read_text() != rendered:
                print(f"DRIFT   {path.relative_to(REPO)}")
                drifted.append(stem)
            else:
                print(f"ok      {path.relative_to(REPO)}")
        else:
            path.write_text(rendered)
            print(f"wrote {path.relative_to(REPO)}")
    if drifted:
        print(
            f"{len(drifted)} golden(s) out of date: {', '.join(drifted)}\n"
            "regenerate with: python scripts/regen_goldens.py"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
