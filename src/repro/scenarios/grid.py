"""Declarative scenario grids: schema, validation, deterministic expansion.

A grid config is a plain mapping (hand-written YAML/JSON or a python dict)
naming *axes* — workloads, machine geometries, replacement policies,
prefetcher switches, pirate schedules, engine tiers — and
:func:`compile_grid` expands their cartesian product into concrete
:class:`GridCell`\\ s.  Expansion is deterministic (fixed nesting order,
first occurrence wins on duplicates) and every cell carries a canonical
sha256 *content key*, so two compilations of semantically identical
configs — whatever the dict key order — produce identical cells, and the
runner's sweep points dedupe against the existing content-addressed
:class:`~repro.core.parallel.SweepCache`.

Validation is all up front: unknown keys, bad policy/engine names,
oversized sweeps, and (when conformance reporting is on) cache sizes the
way-reduction reference cannot represent are each rejected here with a
one-line :class:`GridError` — ``repro grid`` turns that into ``rc=2``
before any simulation starts, never mid-sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from ..config import (
    POLICIES,
    MachineConfig,
    machine_content_token,
    nehalem_config,
    tiny_config,
)
from ..core.parallel import ENGINE_TIERS, SweepSpec, sweep_points
from ..errors import ConfigError, ReproError
from ..rng import stable_seed
from ..store import checksum
from ..units import MB
from ..validation.tiers import DEFAULT_CONFORMANCE_BOUND, check_way_representable
from ..workloads import BENCHMARK_NAMES, TARGET_KINDS, ZOO_NAMES, TargetSpec


class GridError(ConfigError):
    """A grid config that cannot be compiled; always a one-line message."""


#: recognized top-level config keys
GRID_KEYS = ("name", "seed", "axes", "sweep", "report")
#: recognized axes (the cartesian dimensions), in expansion-nesting order
AXIS_KEYS = ("workload", "machine", "policy", "prefetch", "pirate", "engine")
#: recognized keys of a workload axis entry
WORKLOAD_KEYS = (
    "family", "name", "working_set_mb", "alpha", "shared_fraction", "path",
    "instance", "seed",
)
#: recognized keys of a machine axis entry
MACHINE_KEYS = ("geometry", "l3_mb", "l3_ways", "num_cores")
#: recognized keys of a pirate-schedule axis entry
PIRATE_KEYS = ("threads", "sizes_mb")
#: recognized keys of the sweep section
SWEEP_KEYS = ("interval_instructions", "n_intervals", "warmup_instructions")
#: recognized keys of the report section
REPORT_KEYS = ("conformance", "bound", "trace_lines", "csv", "jsonl")

#: machine geometries a grid can name
GEOMETRIES = ("nehalem", "tiny")


def _check_keys(mapping: dict, known: tuple[str, ...], where: str) -> None:
    if not isinstance(mapping, dict):
        raise GridError(f"{where} must be a mapping, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise GridError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(known)}"
        )


@dataclass(frozen=True)
class ReportOptions:
    """What the results pipeline emits for each cell."""

    conformance: bool = False
    bound: float = DEFAULT_CONFORMANCE_BOUND
    trace_lines: int = 40_000
    csv: bool = True
    jsonl: bool = True


@dataclass(frozen=True)
class GridCell:
    """One fully-resolved experiment: a workload on a machine under a schedule.

    ``spec`` is the cell's checked :class:`~repro.core.parallel.SweepSpec`,
    which the runner and ``repro submit --grid`` hand on unchanged.
    ``key`` is the canonical content hash — identical cells from any config
    spelling share it, and the runner uses it to name per-cell artifacts.
    """

    spec: SweepSpec
    sizes_mb: tuple[float, ...]
    engine: str
    key: str

    # read-through views of the spec, for rows, progress lines and callers
    label = property(lambda self: self.spec.benchmark)
    workload = property(lambda self: self.spec.target)
    machine = property(lambda self: self.spec.config)
    policy = property(lambda self: self.spec.config.l3.policy)
    prefetch = property(lambda self: self.spec.config.prefetch_enabled)
    pirate_threads = property(lambda self: self.spec.num_pirate_threads)
    seed = property(lambda self: self.spec.seed)

    def coords(self) -> str:
        """Human-readable cell coordinates for progress lines and errors."""
        return (
            f"{self.label} × {self.machine.l3.size // MB}MB/"
            f"{self.machine.l3.ways}w {self.policy} × "
            f"pf={'on' if self.prefetch else 'off'} × "
            f"{self.pirate_threads}thr × {self.engine}"
        )


@dataclass(frozen=True)
class CompiledGrid:
    """The deterministic expansion of one grid config."""

    name: str
    cells: tuple[GridCell, ...]
    #: cells dropped because an identical content key was already expanded
    duplicates: int
    report: ReportOptions
    seed: int

    @property
    def n_points(self) -> int:
        return sum(len(c.sizes_mb) for c in self.cells)


def load_grid_config(path: str | Path) -> dict:
    """Read a grid config mapping from a YAML or JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise GridError(f"cannot read grid config {path}: {e}") from None
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise GridError(
                f"{path}: reading YAML configs needs the pyyaml package "
                "(write the config as JSON instead)"
            ) from None
        try:
            config = yaml.safe_load(text)
        except yaml.YAMLError as e:
            raise GridError(f"{path}: invalid YAML ({e})") from None
    else:
        try:
            config = json.loads(text)
        except ValueError as e:
            raise GridError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(config, dict):
        raise GridError(f"{path}: grid config must be a mapping")
    return config


def _axis_list(axes: dict, key: str, default: list) -> list:
    value = axes.get(key, default)
    if not isinstance(value, (list, tuple)) or not value:
        raise GridError(f"axes.{key} must be a non-empty list")
    return list(value)


def _workload_entry(entry, index: int) -> TargetSpec:
    """Compile one workload axis entry (a bare name or a family mapping)."""
    where = f"axes.workload[{index}]"
    if isinstance(entry, str):
        known = set(BENCHMARK_NAMES) | {"cigar"} | set(ZOO_NAMES)
        if entry not in known:
            raise GridError(
                f"{where}: unknown workload {entry!r}; known names: suite "
                f"benchmarks, cigar, {', '.join(ZOO_NAMES)}"
            )
        from ..workloads import benchmark_target

        return benchmark_target(entry)
    _check_keys(entry, WORKLOAD_KEYS, where)
    family = entry.get("family")
    if family not in TARGET_KINDS:
        raise GridError(
            f"{where}: unknown family {family!r}; known: {', '.join(TARGET_KINDS)}"
        )
    kwargs = {k: entry[k] for k in WORKLOAD_KEYS if k != "family" and k in entry}
    try:
        return TargetSpec(kind=family, **kwargs)
    except (ConfigError, TypeError) as e:
        raise GridError(f"{where}: {e}") from None


def _machine_number(entry: dict, key: str, where: str):
    """A machine entry's numeric value: ``l3_mb`` a finite number, the
    other keys an integer (a string or null is a GridError, not a deep
    ValueError/TypeError)."""
    v = entry[key]
    if key == "l3_mb":
        ok = isinstance(v, (int, float)) and math.isfinite(v)
    else:
        ok = isinstance(v, int)
    if isinstance(v, bool) or not ok:
        kind = "a finite number" if key == "l3_mb" else "an integer"
        raise GridError(f"{where}: {key} must be {kind}, got {v!r}")
    return v


def _machine_entry(entry, index: int) -> tuple[str, MachineConfig]:
    """Compile one machine axis entry into (label, base config)."""
    where = f"axes.machine[{index}]"
    if isinstance(entry, str):
        entry = {"geometry": entry}
    _check_keys(entry, MACHINE_KEYS, where)
    geometry = entry.get("geometry", "nehalem")
    if geometry not in GEOMETRIES:
        raise GridError(
            f"{where}: unknown geometry {geometry!r}; known: {', '.join(GEOMETRIES)}"
        )
    num = {
        k: _machine_number(entry, k, where)
        for k in ("l3_mb", "l3_ways", "num_cores")
        if k in entry
    }
    try:
        if geometry == "tiny":
            kwargs = {k: num[k] for k in ("l3_ways", "num_cores") if k in num}
            if "l3_mb" in num:
                kwargs["l3_size"] = int(num["l3_mb"] * MB)
            config = tiny_config(**kwargs)
        else:
            config = nehalem_config(num_cores=num.get("num_cores", 4))
            if "l3_mb" in num or "l3_ways" in num:
                l3 = replace(
                    config.l3,
                    size=int(num.get("l3_mb", config.l3.size / MB) * MB),
                    ways=num.get("l3_ways", config.l3.ways),
                )
                config = replace(config, l3=l3)
    except ConfigError as e:
        raise GridError(f"{where}: {e}") from None
    label = f"{geometry}:{config.l3.size // MB}MB/{config.l3.ways}w"
    return label, config


def _pirate_entry(entry, index: int, schedule: SweepSpec) -> tuple[SweepSpec, tuple]:
    """Compile one pirate-schedule axis entry into (schedule, raw sizes);
    :func:`sweep_points` checks the sizes once each machine's L3 is known."""
    where = f"axes.pirate[{index}]"
    _check_keys(entry, PIRATE_KEYS, where)
    try:
        schedule = replace(schedule, num_pirate_threads=entry.get("threads", 1))
    except ConfigError as e:
        raise GridError(f"{where}: {e}") from None
    sizes = entry.get("sizes_mb", [2.0, 4.0, 8.0])
    if not isinstance(sizes, (list, tuple)):
        raise GridError(f"{where}: sizes_mb must be a list")
    return schedule, tuple(sizes)


def _workload_label(spec: TargetSpec) -> str:
    """A display label derived from the spec alone (no instantiation —
    labelling a replay spec must not record its whole source stream)."""
    if spec.kind in ("benchmark", "cigar"):
        return spec.name or spec.kind
    if spec.kind.startswith("micro."):
        return f"{spec.kind}.{spec.working_set_mb:g}MB"
    if spec.kind == "zipf":
        return f"zipf(a={spec.alpha:g},{spec.working_set_mb:g}MB)"
    if spec.kind == "sharing":
        return f"sharing(f={spec.shared_fraction:g},{spec.working_set_mb:g}MB)"
    if spec.kind == "replay":
        return f"replay({spec.name or f'micro.random.{spec.working_set_mb:g}MB'})"
    return f"trace({Path(spec.path).stem})"


def _machine_token(config: MachineConfig) -> dict:
    """Canonical machine description for cell content keys.

    Delegates to :func:`repro.config.machine_content_token`, the same
    helper ``spec_token`` uses for point cache keys and journal head pins,
    so cell keys and sweep keys can never disagree on what counts as
    machine content (``kernel`` is execution strategy and is excluded).
    """
    return machine_content_token(config)


def compile_grid(config: dict) -> CompiledGrid:
    """Validate a grid config and expand it into content-keyed cells.

    Expansion nests the axes in :data:`AXIS_KEYS` order (workload
    outermost, engine innermost), preserving each axis's listed value
    order, so the cell sequence is a pure function of the config's
    *content*.  Cells whose content key repeats an earlier cell are
    dropped (first occurrence wins) and counted in ``duplicates``.
    """
    _check_keys(config, GRID_KEYS, "grid config")
    name = config.get("name", "grid")
    if not isinstance(name, str) or not name:
        raise GridError("grid config: name must be a non-empty string")
    seed = config.get("seed", 0)
    if not isinstance(seed, int):
        raise GridError(f"grid config: seed must be an integer, got {seed!r}")
    axes = config.get("axes", {})
    _check_keys(axes, AXIS_KEYS, "axes")
    if "workload" not in axes:
        raise GridError("axes: a grid needs at least a workload axis")

    sweep = config.get("sweep", {})
    _check_keys(sweep, SWEEP_KEYS, "sweep")
    try:
        # the schedule every cell shares; each cell fills in the rest
        schedule = SweepSpec(target=None, benchmark="", config=None, **sweep)
    except ConfigError as e:
        raise GridError(f"sweep: {e}") from None

    report_cfg = config.get("report", {})
    _check_keys(report_cfg, REPORT_KEYS, "report")
    bound = report_cfg.get("bound", DEFAULT_CONFORMANCE_BOUND)
    if not 0.0 < bound < 1.0:
        raise GridError(f"report.bound must be in (0, 1), got {bound}")
    trace_lines = report_cfg.get("trace_lines", 40_000)
    if not isinstance(trace_lines, int) or trace_lines < 1:
        raise GridError(f"report.trace_lines must be a positive integer, got {trace_lines!r}")
    report = ReportOptions(
        conformance=bool(report_cfg.get("conformance", False)),
        bound=float(bound),
        trace_lines=trace_lines,
        csv=bool(report_cfg.get("csv", True)),
        jsonl=bool(report_cfg.get("jsonl", True)),
    )

    workloads = [
        _workload_entry(e, i)
        for i, e in enumerate(_axis_list(axes, "workload", []))
    ]
    machines = [
        _machine_entry(e, i)
        for i, e in enumerate(_axis_list(axes, "machine", [{"geometry": "nehalem"}]))
    ]
    policies = _axis_list(axes, "policy", ["nru"])
    for p in policies:
        if p not in POLICIES:
            raise GridError(
                f"axes.policy: unknown replacement policy {p!r}; "
                f"known: {', '.join(POLICIES)}"
            )
    prefetches = _axis_list(axes, "prefetch", [True])
    for p in prefetches:
        if not isinstance(p, bool):
            raise GridError(f"axes.prefetch: entries must be booleans, got {p!r}")
    pirates = [
        _pirate_entry(e, i, schedule)
        for i, e in enumerate(_axis_list(axes, "pirate", [{"threads": 1}]))
    ]
    engines = _axis_list(axes, "engine", ["measure"])
    for e in engines:
        if e not in ENGINE_TIERS:
            raise GridError(
                f"axes.engine: unknown engine tier {e!r}; known: {', '.join(ENGINE_TIERS)}"
            )

    cells: list[GridCell] = []
    seen: set[str] = set()
    duplicates = 0
    for wl in workloads:
        wl_label = _workload_label(wl)
        if wl.kind == "trace":
            from ..workloads import open_trace

            try:
                open_trace(wl.path)  # bad files fail compile, not mid-sweep
            except (ReproError, OSError) as e:
                raise GridError(f"axes.workload: {e}") from None
        for m_label, base in machines:
            for policy in policies:
                for prefetch in prefetches:
                    machine = replace(
                        base,
                        l3=replace(base.l3, policy=policy),
                        prefetch_enabled=prefetch,
                    )
                    for i, (pirate, raw_sizes) in enumerate(pirates):
                        spec = replace(
                            pirate, target=wl, benchmark=wl_label, config=machine
                        )
                        try:
                            points = sweep_points(spec, raw_sizes)
                        except ConfigError as e:
                            raise GridError(
                                f"axes.pirate[{i}] on machine {m_label!r}: {e}"
                            ) from None
                        sizes = tuple(sorted(p.size_mb for p in points))
                        if report.conformance:
                            try:
                                check_way_representable(
                                    list(sizes),
                                    l3_size=machine.l3.size,
                                    l3_ways=machine.l3.ways,
                                )
                            except ConfigError as e:
                                raise GridError(
                                    f"machine {m_label!r} cannot represent the "
                                    f"conformance reference for pirate sizes "
                                    f"{list(sizes)}MB: {e}"
                                ) from None
                        for engine in engines:
                            token = {
                                "grid_seed": seed,
                                "workload": wl.token(),
                                "machine": _machine_token(machine),
                                "pirate": {
                                    "threads": spec.num_pirate_threads,
                                    "sizes_mb": list(sizes),
                                },
                                "engine": engine,
                                "sweep": {
                                    "interval_instructions": spec.interval_instructions,
                                    "n_intervals": spec.n_intervals,
                                    "warmup_instructions": spec.warmup_instructions,
                                },
                            }
                            key = checksum(token)
                            if key in seen:
                                duplicates += 1
                                continue
                            seen.add(key)
                            cells.append(
                                GridCell(
                                    spec=replace(spec, seed=stable_seed(seed, key)),
                                    sizes_mb=sizes,
                                    engine=engine,
                                    key=key,
                                )
                            )
    return CompiledGrid(
        name=name,
        cells=tuple(cells),
        duplicates=duplicates,
        report=report,
        seed=seed,
    )
