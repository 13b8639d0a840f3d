"""Execute a compiled grid through the sweep executor.

Each :class:`~repro.scenarios.grid.GridCell` carries its compiled
:class:`~repro.core.parallel.SweepSpec`, and the runner hands it to one
:func:`~repro.core.parallel.run_sweep` call with the cell's engine tier,
so every point inherits the existing machinery wholesale: process-pool
fan-out, content-derived seeds, and the sha256
:class:`~repro.core.parallel.SweepCache`.  Identical cells
across grids (or across runs) therefore dedupe at the *point* level for
free: a re-run of an unchanged grid against the same cache directory
measures nothing and reports 100% cache hits.

Two resume layers compose:

* ``cache_dir`` — point-level: completed sweep points load from the
  content-addressed cache regardless of which run produced them.
* ``out_dir`` + ``resume=True`` — cell-level: each finished cell leaves a
  checksummed ``cells/<key16>.json`` artifact (a :class:`repro.store.Store`
  entry, key-verified on load), and a resumed run skips those cells
  without touching the engine at all; a damaged artifact is quarantined
  and its cell re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.curves import PerformanceCurve
from ..core.parallel import run_sweep
from ..observability import ensure_telemetry
from ..store import Format, Store
from .grid import CompiledGrid, GridCell

#: the row schema: every row carries exactly these keys, in the CSV
#: artifact's column order
ROW_FIELDS = (
    "cell",
    "workload",
    "policy",
    "prefetch",
    "pirate_threads",
    "engine",
    "l3_mb",
    "l3_ways",
    "size_mb",
    "cpi",
    "bandwidth_gbps",
    "fetch_ratio",
    "miss_ratio",
    "pirate_fetch_ratio",
    "valid",
)


@dataclass
class CellResult:
    """One cell's curve rows plus where its points came from."""

    cell: GridCell
    #: one mapping per swept size (the CSV/JSONL row schema)
    rows: list[dict] = field(default_factory=list)
    measured: int = 0
    cache_hits: int = 0
    #: conformance verdict mapping when the grid asked for one, else None
    conformance: dict | None = None
    #: loaded from a prior run's cell artifact instead of executing
    resumed: bool = False

    def to_dict(self) -> dict:
        return {
            "key": self.cell.key,
            "label": self.cell.label,
            "rows": self.rows,
            "measured": self.measured,
            "cache_hits": self.cache_hits,
            "conformance": self.conformance,
        }


@dataclass
class GridResult:
    """The whole grid's outcome: per-cell results and engine statistics."""

    name: str
    cells: list[CellResult] = field(default_factory=list)

    @property
    def measured(self) -> int:
        return sum(c.measured for c in self.cells)

    @property
    def cache_hits(self) -> int:
        return sum(c.cache_hits for c in self.cells)

    @property
    def resumed_cells(self) -> int:
        return sum(1 for c in self.cells if c.resumed)

    @property
    def conformance_failures(self) -> list[str]:
        return [
            c.cell.coords()
            for c in self.cells
            if c.conformance is not None and not c.conformance["passed"]
        ]

    def rows(self) -> list[dict]:
        """All cells' rows, in cell order (the emit pipeline's input)."""
        return [row for c in self.cells for row in c.rows]


def _cell_rows(cell: GridCell, results, clock_hz: float) -> list[dict]:
    """Aggregate one cell's point results into per-size metric rows."""
    samples = [s for r in results for s in r.samples]
    curve = PerformanceCurve.from_samples(cell.label, samples, clock_hz)
    return [
        {
            "cell": cell.key[:12],
            "workload": cell.label,
            "policy": cell.policy,
            "prefetch": cell.prefetch,
            "pirate_threads": cell.pirate_threads,
            "engine": cell.engine,
            "l3_mb": cell.machine.l3.size / (1024 * 1024),
            "l3_ways": cell.machine.l3.ways,
            "size_mb": p.cache_mb,
            "cpi": p.cpi,
            "bandwidth_gbps": p.bandwidth_gbps,
            "fetch_ratio": p.fetch_ratio,
            "miss_ratio": p.miss_ratio,
            "pirate_fetch_ratio": p.pirate_fetch_ratio,
            "valid": p.valid,
        }
        for p in curve.points
    ]


def _cell_conformance(cell: GridCell, grid: CompiledGrid, workers: int, tel) -> dict:
    """Judge one cell through the differential oracle (§III-B, 3% bound)."""
    from ..validation.conformance import conformance_report
    from ..validation.differential import differential_compare
    from ..validation.tiers import ValidationTier

    tier = ValidationTier(
        name="grid",
        sizes_mb=cell.sizes_mb,
        trace_lines=grid.report.trace_lines,
        bound=grid.report.bound,
    )
    diff = differential_compare(
        cell.label,
        tier,
        config=replace(cell.machine, prefetch_enabled=False),
        seed=cell.seed,
        workers=workers,
        telemetry=tel,
        factory=cell.workload,
    )
    report = conformance_report(diff, bound=grid.report.bound)
    return {
        "passed": report.passed,
        "worst_divergence": report.worst_divergence,
        "bound": report.bound,
        "violations": report.violations,
        "untrusted": report.untrusted,
    }


def _cell_payload(payload: dict) -> dict:
    """A cell artifact's payload, or ValueError when its shape is wrong."""
    rows, conformance = payload["rows"], payload["conformance"]
    if not isinstance(payload["key"], str) or not isinstance(rows, list):
        raise ValueError("cell artifact needs a key and a row list")
    if not all(isinstance(r, dict) and r.keys() == set(ROW_FIELDS) for r in rows):
        raise ValueError("cell rows do not match the row schema")
    if conformance is not None and not (
        isinstance(conformance, dict) and {"passed", "worst_divergence"} <= conformance.keys()
    ):
        raise ValueError("malformed conformance verdict")
    return payload


#: a finished cell's envelope under ``<out>/cells/<key16>.json``
CELL_FORMAT = Format("cell_format", 1, _cell_payload)


def _load_cell(cells: Store, cell: GridCell) -> CellResult | None:
    """A prior run's verified result for this cell, or None (re-run it)."""
    payload = cells.load(cell.key[:16])
    if payload is None or payload["key"] != cell.key:
        return None  # absent, stale, quarantined, or a short-name collision
    return CellResult(
        cell=cell,
        rows=payload["rows"],
        measured=0,
        cache_hits=len(payload["rows"]),
        conformance=payload["conformance"],
        resumed=True,
    )


def run_cell(
    cell: GridCell,
    grid: CompiledGrid,
    *,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    telemetry=None,
) -> CellResult:
    """Execute one cell through :func:`run_sweep`; pure in (cell, grid)."""
    tel = ensure_telemetry(telemetry)
    with tel.span("grid_cell", cell=cell.key[:12], engine=cell.engine):
        results, stats = run_sweep(
            cell.spec,
            list(cell.sizes_mb),
            engine=cell.engine,
            workers=workers,
            cache_dir=cache_dir,
            telemetry=tel,
        )
        out = CellResult(
            cell=cell,
            rows=_cell_rows(cell, results, cell.machine.core.clock_hz),
            measured=stats.measured,
            cache_hits=stats.cache_hits,
        )
        if grid.report.conformance:
            out.conformance = _cell_conformance(cell, grid, workers, tel)
    return out


def run_grid(
    grid: CompiledGrid,
    *,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    out_dir: str | Path | None = None,
    resume: bool = False,
    telemetry=None,
    echo=None,
) -> GridResult:
    """Run every cell of a compiled grid; returns the collected results.

    ``workers`` fans each cell's points over a process pool (cells
    themselves run in sequence — results are bit-identical for any worker
    count).  ``echo`` receives one progress line per cell.
    """
    tel = ensure_telemetry(telemetry)
    say = echo or (lambda _line: None)
    cells = Store(Path(out_dir) / "cells", CELL_FORMAT) if out_dir is not None else None
    result = GridResult(name=grid.name)
    with tel.span("grid_run", grid=grid.name, cells=len(grid.cells)):
        for i, cell in enumerate(grid.cells, 1):
            prior = _load_cell(cells, cell) if resume and cells is not None else None
            if prior is not None:
                result.cells.append(prior)
                say(f"[{i}/{len(grid.cells)}] {cell.coords()}: resumed")
                continue
            outcome = run_cell(
                cell, grid, workers=workers, cache_dir=cache_dir, telemetry=tel
            )
            result.cells.append(outcome)
            if cells is not None:
                cells.save(cell.key[:16], outcome.to_dict())
            status = f"{outcome.measured} measured, {outcome.cache_hits} cached"
            if outcome.conformance is not None:
                status += (
                    ", conformance "
                    + ("PASS" if outcome.conformance["passed"] else "FAIL")
                )
            say(f"[{i}/{len(grid.cells)}] {cell.coords()}: {status}")
    return result
