"""Results pipeline: grid rows to CSV/JSONL artifacts and summary tables.

The runner produces uniform per-size row mappings; this module is the
Icarus-style collectors stage that turns them into files and human
summaries.  Emission is deliberately dumb — rows are already plain JSON
scalars — so downstream tooling (pandas, jq, spreadsheets) needs no
knowledge of the simulator.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .runner import ROW_FIELDS, GridResult


def write_rows_csv(path: str | Path, rows: list[dict]) -> None:
    """Emit grid rows as a CSV table with the canonical column order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def write_rows_jsonl(path: str | Path, rows: list[dict]) -> None:
    """Emit grid rows as JSON Lines (one row object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def emit(result: GridResult, out_dir: str | Path, *, csv_out: bool = True,
         jsonl_out: bool = True) -> list[Path]:
    """Write the grid's artifacts under ``out_dir``; returns written paths."""
    out = Path(out_dir)
    rows = result.rows()
    written = []
    if csv_out:
        p = out / f"{result.name}.csv"
        write_rows_csv(p, rows)
        written.append(p)
    if jsonl_out:
        p = out / f"{result.name}.jsonl"
        write_rows_jsonl(p, rows)
        written.append(p)
    return written


def format_summary(result: GridResult) -> str:
    """The end-of-run report: cache economics and conformance roll-up."""
    points = sum(len(c.rows) for c in result.cells)
    executed = result.measured + result.cache_hits
    lines = [
        f"grid {result.name}: {len(result.cells)} cells, {points} points"
        + (f" ({result.resumed_cells} cells resumed)" if result.resumed_cells else "")
    ]
    if executed:
        pct = result.cache_hits / executed * 100.0
        lines.append(
            f"points measured: {result.measured}, from cache: "
            f"{result.cache_hits} ({pct:.1f}% cache hits)"
        )
    judged = [c for c in result.cells if c.conformance is not None]
    if judged:
        failing = result.conformance_failures
        worst = max(c.conformance["worst_divergence"] for c in judged)
        lines.append(
            f"conformance: {len(judged) - len(failing)}/{len(judged)} cells PASS "
            f"(worst divergence {worst * 100:.3f}%)"
            + (f"; FAIL: {'; '.join(failing)}" if failing else "")
        )
    return "\n".join(lines)
