"""Command-line interface: ``python -m repro <command> ...``.

The tool a user of the real Cache Pirate would have been handed:

* ``list`` — the synthetic benchmark suite,
* ``curve BENCH`` — CPI/BW/fetch/miss vs cache size from one execution
  (dynamic pirating), as a table and optional ASCII plot; ``--engine
  surrogate|auto`` swaps the co-runs for the analytic predictor
  (:mod:`repro.surrogate`),
* ``steal BENCH`` — Pirate fetch ratio vs stolen size + the max it can steal,
* ``probe BENCH`` — the §III-C thread-count probe,
* ``bandwidth BENCH`` — the Bandwidth Bandit extension: CPI vs available
  off-chip bandwidth,
* ``reuse BENCH`` — reuse-distance profile and model-predicted miss curve,
* ``sweep BENCH`` — the fixed-size baseline sweep through the one sweep
  executor (``repro.core.parallel.run_sweep``): ``--workers N`` fans points
  over a process pool, ``--cache-dir`` makes re-runs skip completed points,
  ``--telemetry PATH`` leaves the run's full span/metric stream behind as
  JSONL (plus a ``.summary.json`` sibling), ``--supervise``/``--point-timeout``
  hand the executor a ``SupervisorPolicy`` (watchdog, bounded retry and
  quarantine instead of failing on a point's first fault), and
  ``--journal-dir`` + ``--resume RUN_ID`` continue a killed run from its
  write-ahead journal,
* ``cache verify|repair|gc DIR`` — audit the entry checksums of any
  checksummed store (a sweep cache, ``<state-dir>/store`` or a grid's
  ``<out>/cells``), quarantine corruption, sweep up the debris,
* ``stats PATH`` — render a telemetry JSONL stream as a run report,
* ``validate`` — the conformance oracle: replay each benchmark through the
  pirated cache and the reference simulator and judge them against the
  paper's 3% fetch-ratio bound (``--quick``/``--full`` tiers, ``--json``
  writes the ``conformance_report.json`` artifact, exit 1 on divergence);
  ``--engine surrogate`` grades the analytic predictor instead, per-size
  PASS/GRAY/FAIL,
* ``grid CONFIG`` — the declarative scenario engine: compile a YAML/JSON
  grid config (workloads × machines × policies × prefetch × pirate
  schedules × engine tiers) into content-keyed cells and run them through
  the parallel engine with sha256 cache dedup; ``--dry-run`` prints the
  expansion, ``--resume`` skips cells a prior run already finished,
  ``--out`` collects CSV/JSONL artifacts (see ``repro.scenarios``),
* ``experiments`` — regenerate the paper's tables/figures (see
  ``repro.experiments.runall``),
* ``serve`` — the curve service: an asyncio job server over stdlib HTTP
  (unix socket or TCP) with a bounded queue, content-key dedup of identical
  in-flight work, an LRU result store with warm-start, per-client quotas,
  and journal-backed crash resume (see ``repro.service``),
* ``submit BENCH | --grid CONFIG`` / ``status [KEY]`` / ``fetch KEY`` /
  ``watch KEY`` — the service clients: submit sweeps (every response
  carries the job's sha256 content key, so re-submits are cache hits),
  poll state, fetch finished curves, stream progress events as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .analysis.merge import assemble_curve
from .analysis.plot import plot_performance_curve
from .analysis.report import format_quality_report
from .analysis.reuse import reuse_profile
from .config import KERNEL_MODES, check_kernel, nehalem_config
from .core import choose_pirate_threads, measure_curve_dynamic, measure_curve_fixed
from .core.bandit import measure_bandwidth_curve
from .core.journal import new_run_id
from .core.parallel import (
    CACHE_FORMAT,
    ENGINE_TIERS,
    SupervisorPolicy,
    SweepSpec,
    check_sweep_engine,
    resolve_engine,
    run_sweep,
    sweep_points,
)
from .core.resilience import PartialCurve, RetryPolicy, measure_point_resilient
from .errors import ConfigError, MeasurementError
from .observability import Telemetry, format_report, read_jsonl, summarize, write_jsonl
from .store import Store
from .tracing import capture_trace
from .units import MB
from .workloads import (
    BENCHMARK_NAMES,
    ZOO_NAMES,
    TargetSpec,
    benchmark_spec,
    benchmark_target,
)


class _CLIError(Exception):
    """A bad command-line argument; rendered as one clean error line."""


def _factory(name: str, seed: int) -> TargetSpec:
    # a picklable spec, not a closure: every command's factory can cross a
    # process-pool boundary and key the sweep result cache
    return benchmark_target(name, seed=seed)


def _parse_sizes(text: str, *, check_range: bool = True) -> list[float]:
    """Parse a comma-separated MB list, rejecting junk before any simulation
    runs.  ``repro sweep``/``submit`` pass ``check_range=False``: their
    sizes are checked by :func:`~repro.core.parallel.sweep_points`."""
    max_mb = nehalem_config().l3.size / MB
    sizes = []
    for s in text.split(","):
        s = s.strip()
        if not s:
            continue
        try:
            v = float(s)
        except ValueError:
            raise _CLIError(f"--sizes: {s!r} is not a number") from None
        if check_range and not v > 0:
            raise _CLIError(f"--sizes: sizes must be positive, got {s}")
        if check_range and v > max_mb:
            raise _CLIError(f"--sizes: {s}MB exceeds the {max_mb:g}MB L3")
        sizes.append(v)
    if not sizes:
        raise _CLIError("--sizes: need at least one size")
    return sizes


#: the flag that sets each checked sweep field, so a refused value names it
_SWEEP_FLAGS = {
    "sizes_mb": "--sizes",
    "interval_instructions": "--interval",
    "n_intervals": "--intervals",
    "num_pirate_threads": "--threads",
}


def _sweep_args(args, **fields) -> tuple[SweepSpec, list[float]]:
    """The checked ``(SweepSpec, sizes)`` of ``repro sweep``/``submit``; a
    refusal (led by its field) is prefixed with the flag that set it."""
    sizes = _parse_sizes(args.sizes, check_range=False)
    try:
        spec = SweepSpec(
            target=_factory(args.benchmark, args.seed),
            benchmark=args.benchmark,
            interval_instructions=args.interval,
            n_intervals=args.intervals,
            seed=args.seed,
            **fields,
        )
        sweep_points(spec, sizes)
    except ConfigError as e:
        flag = _SWEEP_FLAGS.get(str(e).partition(" ")[0].rstrip(":"))
        raise _CLIError(f"{flag}: {e}" if flag else str(e)) from None
    return spec, sizes


def _require_positive(value: float, what: str) -> float:
    if not value > 0:
        raise _CLIError(f"{what} must be positive, got {value:g}")
    return value


def _require_nonneg_int(value: int, what: str) -> int:
    if value < 0:
        raise _CLIError(f"{what} must be >= 0, got {value}")
    return value


def _add_tier_args(p: argparse.ArgumentParser) -> None:
    """``--engine``/``--surrogate-bound``: curve engine-tier knobs."""
    p.add_argument(
        "--engine", default="measure",
        help="curve engine tier: measure (co-run every point), surrogate "
             "(analytic reuse-distance prediction, no co-runs), auto "
             "(predict, escalate grey points to bit-exact measurement)",
    )
    p.add_argument(
        "--surrogate-bound", type=float, default=None, metavar="E",
        help="error-estimate threshold separating confident surrogate points "
             "from grey ones, in (0, 1) (default: the 3%% conformance bound)",
    )


def _resolve_tier_args(args):
    """Validate the engine-tier flags; return ``(engine, policy-or-None)``."""
    from .surrogate import SurrogatePolicy

    try:
        engine = resolve_engine(args.engine)
    except ConfigError as e:
        raise _CLIError(f"--engine: {e}") from None
    policy = None
    if args.surrogate_bound is not None:
        if engine == "measure":
            raise _CLIError("--surrogate-bound needs --engine surrogate or auto")
        if not 0.0 < args.surrogate_bound < 1.0:
            raise _CLIError(
                f"--surrogate-bound must be in (0, 1), got {args.surrogate_bound:g}"
            )
        policy = SurrogatePolicy(bound=args.surrogate_bound)
    return engine, policy


#: ``--kernel`` is validated by :func:`~repro.config.check_kernel`, not
#: argparse ``choices``, so a retired mode gets a one-line error naming
#: the replacement
_KERNEL_METAVAR = "{" + ",".join(KERNEL_MODES) + "}"


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    """``--kernel``: the simulation-engine knob shared by every command that
    runs the machine."""
    p.add_argument(
        "--kernel", default=None, metavar=_KERNEL_METAVAR,
        help="simulation engine: auto runs the C hierarchy walk (the scalar "
             "loops where it cannot run, e.g. without a C compiler), scalar "
             "the interpreter loops (default: auto, or $REPRO_KERNEL); both "
             "give bit-identical results",
    )


def _engine_config(args, **kwargs):
    """Build the machine config from the engine flag (+ command extras)."""
    try:
        return nehalem_config(kernel=args.kernel, **kwargs)
    except ConfigError as e:
        raise _CLIError(str(e)) from None


def _resolve_workers(args) -> int | None:
    """Apply the ``--serial``/``--workers`` pair, rejecting contradictions."""
    workers = getattr(args, "workers", None)
    if getattr(args, "serial", False):
        if workers:
            raise _CLIError(
                f"--serial conflicts with --workers {workers}; pick one"
            )
        return 0
    if workers is not None:
        _require_nonneg_int(workers, "--workers")
    return workers


def cmd_list(args, out=print) -> int:
    out(f"{'name':12} {'SPEC id':16} {'footprint MB':>13}  note")
    for name in BENCHMARK_NAMES:
        spec = benchmark_spec(name)
        out(f"{name:12} {spec.spec_id:16} {spec.footprint_mb():13.1f}  {spec.note}")
    out(f"{'cigar':12} {'(GA benchmark)':16} {6.15:13.1f}  6MB fetch-ratio knee (Fig. 6)")
    zoo_notes = {
        "zipf": "Zipf(0.8) request stream over 2MB (workload zoo)",
        "sharing": "data-sharing thread, 50% shared footprint (workload zoo)",
        "replay": "record->replay of a 2MB random stream (workload zoo)",
    }
    for name in ZOO_NAMES:
        spec = benchmark_target(name)
        fp = spec().footprint_lines() * 64 / MB
        out(f"{name:12} {'(workload zoo)':16} {fp:13.1f}  {zoo_notes[name]}")
    return 0


def cmd_curve(args, out=print) -> int:
    sizes = _parse_sizes(args.sizes)
    _require_positive(args.total, "--total")
    _require_positive(args.interval, "--interval")
    _require_nonneg_int(args.retries, "--retries")
    engine, surrogate = _resolve_tier_args(args)
    if engine != "measure":
        # analytic tiers predict the whole curve from one profile; there is
        # no dynamic co-run (and so no overhead figure) to report
        curve = measure_curve_fixed(
            _factory(args.benchmark, args.seed),
            sizes,
            benchmark=args.benchmark,
            config=_engine_config(args),
            seed=args.seed,
            engine=engine,
            surrogate=surrogate,
        )
        out(curve.format_table())
        if isinstance(curve, PartialCurve):
            out(format_quality_report(curve))
        if args.plot:
            for metric in ("cpi", "bandwidth_gbps", "fetch_ratio"):
                out("")
                out(plot_performance_curve(curve, metric))
        return 0
    policy = RetryPolicy(max_attempts=args.retries + 1) if args.retries else None
    result = measure_curve_dynamic(
        _factory(args.benchmark, args.seed),
        sizes,
        total_instructions=args.total,
        interval_instructions=args.interval,
        benchmark=args.benchmark,
        config=_engine_config(args),
        seed=args.seed,
        retry_policy=policy,
    )
    out(result.curve.format_table())
    if policy is not None:
        out(format_quality_report(result.curve))
    out(f"overhead vs running alone: {result.overhead * 100:.1f}%")
    if args.plot:
        for metric in ("cpi", "bandwidth_gbps", "fetch_ratio"):
            out("")
            out(plot_performance_curve(result.curve, metric))
    return 0


def cmd_steal(args, out=print) -> int:
    if args.threads < 1:
        raise _CLIError(f"--threads must be >= 1, got {args.threads}")
    _require_positive(args.interval, "--interval")
    _require_nonneg_int(args.retries, "--retries")
    # each stolen size is measured through the retry engine, but with size
    # degradation disabled — the sweep exists to find where each exact size
    # stops being achievable, so substituting sizes would defeat it
    policy = RetryPolicy(max_attempts=args.retries + 1, degrade_after_attempt=10**6)
    config = _engine_config(args)
    out(f"{'stolen MB':>10} {'pirate FR%':>11} {'target CPI':>11} {'ok':>3} {'att':>4}")
    best = 0.0
    for step in range(1, 16):
        stolen = step * MB // 2
        res, q = measure_point_resilient(
            _factory(args.benchmark, args.seed),
            stolen,
            config=config,
            policy=policy,
            num_pirate_threads=args.threads,
            interval_instructions=args.interval,
            n_intervals=1,
            warmup_instructions=args.interval / 2,
            seed=args.seed,
        )
        s = res.samples[0]
        if q.valid:
            best = stolen / MB
        out(
            f"{stolen / MB:>10.1f} {q.pirate_fetch_ratio * 100:>11.2f} "
            f"{s.target.cpi:>11.2f} {'y' if q.valid else 'NO':>3} {q.attempts:>4}"
        )
    out(f"max stealable with {args.threads} thread(s): {best:.1f}MB")
    return 0


def cmd_probe(args, out=print) -> int:
    if args.max_threads < 1:
        raise _CLIError(f"--max-threads must be >= 1, got {args.max_threads}")
    _require_positive(args.interval, "--interval")
    probe = choose_pirate_threads(
        _factory(args.benchmark, args.seed),
        config=_engine_config(args),
        max_threads=args.max_threads,
        probe_instructions=args.interval,
        seed=args.seed,
    )
    for k, cpi in sorted(probe.cpi_by_threads.items()):
        out(f"{k} pirate thread(s): target CPI {cpi:.3f}")
    if args.max_threads > 1:
        out(f"slowdown of 2 vs 1: {probe.slowdown(2) * 100:.2f}%")
    out(f"-> safe pirate thread count: {probe.threads}")
    return 0


def cmd_bandwidth(args, out=print) -> int:
    _require_positive(args.interval, "--interval")
    try:
        gaps = [float(g) for g in args.gaps.split(",") if g.strip()]
    except ValueError:
        raise _CLIError(f"--gaps: {args.gaps!r} is not a comma-separated number list") from None
    if not gaps:
        raise _CLIError("--gaps: need at least one issue gap")
    if any(g <= 0 for g in gaps):
        raise _CLIError("--gaps: issue gaps must be positive")
    curve = measure_bandwidth_curve(
        _factory(args.benchmark, args.seed),
        gaps,
        config=_engine_config(args),
        interval_instructions=args.interval,
        warmup_instructions=args.interval,
        benchmark=args.benchmark,
        seed=args.seed,
    )
    out(curve.format_table())
    return 0


def cmd_reuse(args, out=print) -> int:
    _require_positive(args.window, "--window")
    sizes = _parse_sizes(args.sizes)
    trace = capture_trace(
        _factory(args.benchmark, args.seed)(), 0, args.window, benchmark=args.benchmark
    )
    prof = reuse_profile(trace, skip_fraction=0.25)
    out(prof.format_table(sizes))
    out(f"working-set estimate: {prof.working_set_mb():.2f}MB")
    return 0


def _stats_line(stats: dict) -> str:
    """Where a sweep's points came from (``repro sweep``, ``submit --wait``)."""
    return (
        f"measured={stats['measured']} cache={stats['cache_hits']} "
        f"journal={stats['journal_hits']} retries={stats.get('retries', 0)} "
        f"quarantined={stats['quarantined']}"
    )


def _export_telemetry(telemetry: Telemetry, path: str, out) -> None:
    """Write the JSONL stream plus an aggregated ``.summary.json`` sibling."""
    write_jsonl(telemetry, path)
    summary_path = Path(path).with_suffix(Path(path).suffix + ".summary.json")
    summary_path.write_text(json.dumps(telemetry.summary(), indent=2) + "\n")
    out(f"telemetry: {path} (summary: {summary_path})")


def cmd_sweep(args, out=print) -> int:
    workers = _resolve_workers(args)
    _require_nonneg_int(args.retries, "--retries")
    engine, surrogate = _resolve_tier_args(args)
    policy = RetryPolicy(max_attempts=args.retries + 1) if args.retries else None
    telemetry = Telemetry() if args.telemetry else None
    spec, sizes = _sweep_args(args, config=_engine_config(args), retry=policy)

    # -- supervision / durability flags ------------------------------------
    if args.point_timeout is not None:
        _require_positive(args.point_timeout, "--point-timeout")
    if args.max_point_failures < 1:
        raise _CLIError(
            f"--max-point-failures must be >= 1, got {args.max_point_failures}"
        )
    journal_dir = args.journal_dir or None
    run_id = args.run_id or None
    resume = bool(args.resume)
    if resume:
        if journal_dir is None:
            raise _CLIError("--resume needs --journal-dir (where the journal lives)")
        if run_id is not None and run_id != args.resume:
            raise _CLIError(
                f"--resume {args.resume} conflicts with --run-id {run_id}; pick one"
            )
        run_id = args.resume
    supervised = (
        args.supervise
        or args.point_timeout is not None
        or journal_dir is not None
        or resume
    )
    # refuse an engine/option clash before echoing a run id
    check_sweep_engine(engine, retry=policy, supervised=supervised)
    supervise = None
    if supervised:
        supervise = SupervisorPolicy(
            point_timeout_s=args.point_timeout,
            max_point_failures=args.max_point_failures,
        )
        if journal_dir is not None and run_id is None:
            run_id = new_run_id()
        if run_id is not None:
            out(f"journal run id: {run_id}  (resume with --resume {run_id})")

    try:
        results, stats = run_sweep(
            spec,
            sizes,
            engine=engine,
            surrogate=surrogate,
            workers=workers,
            cache_dir=args.cache_dir or None,
            policy=supervise,
            journal_dir=journal_dir,
            run_id=run_id,
            resume=resume,
            telemetry=telemetry,
        )
        curve = assemble_curve(
            spec.benchmark, results, spec.config.core.clock_hz, telemetry=telemetry
        )
    except MeasurementError as e:
        # e.g. supervision quarantined every point: no curve to print
        out(f"error: {e}")
        return 1
    out(curve.format_table())
    if isinstance(curve, PartialCurve):
        out(format_quality_report(curve))
    out("sweep: " + _stats_line(asdict(stats)))
    if args.plot:
        for metric in ("cpi", "bandwidth_gbps", "fetch_ratio"):
            out("")
            out(plot_performance_curve(curve, metric))
    if telemetry is not None:
        _export_telemetry(telemetry, args.telemetry, out)
    return 0


def cmd_cache(args, out=print) -> int:
    from .scenarios.runner import CELL_FORMAT
    from .service.store import STORE_FORMAT

    root = Path(args.dir)
    if not root.is_dir():
        raise _CLIError(f"no such cache directory: {args.dir}")
    # each entry's format key picks its decoder: one scan serves all kinds
    store = Store(root, (CACHE_FORMAT, STORE_FORMAT, CELL_FORMAT))
    if args.action == "verify":
        audit = store.verify()
        out(audit.format())
        return 0 if audit.clean else 1
    if args.action == "repair":
        audit = store.repair()
        out(audit.format())
        out(f"quarantined {len(audit.corrupt)} corrupt entr"
            f"{'y' if len(audit.corrupt) == 1 else 'ies'}")
        return 0
    removed = store.gc()
    out(f"removed {removed} file(s) (quarantined, temp, stale-version)")
    return 0


def cmd_stats(args, out=print) -> int:
    try:
        records, registry = read_jsonl(args.path)
    except OSError as e:
        raise _CLIError(f"cannot read {args.path}: {e}") from None
    except ValueError as e:
        raise _CLIError(str(e)) from None
    summary = summarize((records, registry))
    if args.json:
        out(json.dumps(summary, indent=2))
    else:
        out(format_report(summary))
    return 0


def cmd_validate(args, out=print) -> int:
    from .validation import validate_suite
    from .validation.tiers import check_way_representable, resolve_tier

    if args.quick and args.full:
        raise _CLIError("--quick and --full are mutually exclusive")
    engine, surrogate = _resolve_tier_args(args)
    if engine == "auto":
        raise _CLIError(
            "--engine auto has nothing to grade (its grey points escalate to "
            "measurement); validate grades measure or surrogate"
        )
    workers = _resolve_workers(args) or 0
    tier = resolve_tier("full" if args.full else "quick")
    config = _engine_config(args, prefetch_enabled=False)
    if args.sizes:
        sizes = sorted(_parse_sizes(args.sizes))
        try:
            check_way_representable(
                sizes, l3_size=config.l3.size, l3_ways=config.l3.ways
            )
        except ConfigError as e:
            raise _CLIError(f"--sizes: {e}") from None
        tier = tier.with_sizes(sizes)
    if args.bound is not None:
        if not 0.0 < args.bound < 1.0:
            raise _CLIError(f"--bound must be in (0, 1), got {args.bound:g}")
        tier = tier.with_bound(args.bound)
    known = set(BENCHMARK_NAMES) | {"cigar"} | set(ZOO_NAMES)
    names = list(args.benchmarks) or [*BENCHMARK_NAMES, "cigar"]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise _CLIError(
            f"unknown benchmark(s) {', '.join(unknown)}; try: python -m repro list"
        )
    telemetry = Telemetry() if args.telemetry else None
    if engine == "surrogate":
        from .validation import grade_suite

        out(
            f"Surrogate grading — analytic prediction vs reference simulator "
            f"(tier={tier.name}, bound={tier.bound * 100:.1f}%)"
        )
        suite = grade_suite(
            names,
            tier,
            config=config,
            seed=args.seed,
            workers=workers,
            policy=surrogate,
            telemetry=telemetry,
            echo=out,
        )
        out(suite.summary_line())
        if args.json:
            suite.write_json(args.json)
            out(f"report: {args.json}")
        if telemetry is not None:
            _export_telemetry(telemetry, args.telemetry, out)
        return 0 if suite.passed else 1
    out(
        f"Conformance — pirated cache vs reference simulator "
        f"(tier={tier.name}, bound={tier.bound * 100:.1f}%)"
    )
    suite = validate_suite(
        names,
        tier,
        config=config,
        seed=args.seed,
        workers=workers,
        telemetry=telemetry,
        echo=out,
    )
    out(suite.summary_line())
    if args.json:
        suite.write_json(args.json)
        out(f"report: {args.json}")
    if telemetry is not None:
        _export_telemetry(telemetry, args.telemetry, out)
    return 0 if suite.passed else 1


def cmd_grid(args, out=print) -> int:
    from .scenarios import compile_grid, emit, format_summary, load_grid_config, run_grid

    workers = _resolve_workers(args) or 0
    try:
        config = load_grid_config(args.config)
        if args.engine:
            config.setdefault("axes", {})["engine"] = [resolve_engine(args.engine)]
        grid = compile_grid(config)
    except ConfigError as e:
        raise _CLIError(str(e)) from None
    out(
        f"grid {grid.name}: {len(grid.cells)} cells, {grid.n_points} points"
        + (f" ({grid.duplicates} duplicate cells deduped)" if grid.duplicates else "")
    )
    if args.dry_run:
        out(f"{'cell':12} {'engine':9} {'sizes (MB)':18} coordinates")
        for cell in grid.cells:
            sizes = ",".join(f"{s:g}" for s in cell.sizes_mb)
            out(f"{cell.key[:12]} {cell.engine:9} {sizes:18} {cell.coords()}")
        return 0
    if args.resume and not args.out:
        raise _CLIError("--resume needs --out (where prior cell results live)")
    telemetry = Telemetry() if args.telemetry else None
    result = run_grid(
        grid,
        workers=workers,
        cache_dir=args.cache_dir or None,
        out_dir=args.out or None,
        resume=bool(args.resume),
        telemetry=telemetry,
        echo=out,
    )
    out(format_summary(result))
    if args.out:
        for path in emit(
            result, args.out, csv_out=grid.report.csv, jsonl_out=grid.report.jsonl
        ):
            out(f"wrote {path}")
    if telemetry is not None:
        _export_telemetry(telemetry, args.telemetry, out)
    return 1 if result.conformance_failures else 0


# -- the curve service (repro serve / submit / status / fetch / watch) --------------


def _add_service_addr(p: argparse.ArgumentParser) -> None:
    """``--socket``/``--host``/``--port``: where the curve service lives."""
    p.add_argument("--socket", default="", metavar="PATH",
                   help="unix socket of the service")
    p.add_argument("--host", default="", help="TCP host of the service")
    p.add_argument("--port", type=int, default=0, help="TCP port of the service")
    p.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS",
                   help="per-request socket timeout")


def _service_client(args):
    from .service import ServiceClient, ServiceError

    try:
        return ServiceClient(
            socket_path=args.socket or None,
            host=args.host or None,
            port=args.port,
            timeout=args.timeout,
            client_id=getattr(args, "client", ""),
        )
    except (ServiceError, OSError) as e:
        raise _CLIError(str(e)) from None


def cmd_serve(args, out=print) -> int:
    import asyncio

    from .service import run_server

    if not args.socket and not args.host:
        raise _CLIError("serve needs --socket PATH and/or --host (with --port)")
    if args.job_workers < 1:
        raise _CLIError(f"--job-workers must be >= 1, got {args.job_workers}")
    if args.queue_size < 1:
        raise _CLIError(f"--queue-size must be >= 1, got {args.queue_size}")
    if args.store_max < 1:
        raise _CLIError(f"--store-max must be >= 1, got {args.store_max}")
    _require_nonneg_int(args.workers, "--workers")
    _require_nonneg_int(args.quota, "--quota")
    if args.point_timeout is not None:
        _require_positive(args.point_timeout, "--point-timeout")
    where = " + ".join(
        s for s in (
            f"unix:{args.socket}" if args.socket else "",
            f"{args.host}:{args.port}" if args.host else "",
        ) if s
    )
    out(f"serving curves on {where}  (state: {args.state_dir})")
    try:
        asyncio.run(
            run_server(
                args.state_dir,
                socket_path=args.socket or None,
                host=args.host or None,
                port=args.port,
                job_workers=args.job_workers,
                sweep_workers=args.workers,
                queue_size=args.queue_size,
                store_max=args.store_max,
                quota=args.quota,
                point_timeout=args.point_timeout,
            )
        )
    except KeyboardInterrupt:
        out("shutting down")
    return 0


def cmd_submit(args, out=print) -> int:
    from .service import JobSpec, ServiceError

    client = _service_client(args)
    if args.grid:
        if args.benchmark:
            raise _CLIError("--grid conflicts with a benchmark argument; pick one")
        from .scenarios import compile_grid, load_grid_config

        try:
            grid = compile_grid(load_grid_config(args.grid))
        except ConfigError as e:
            raise _CLIError(str(e)) from None
        jobs = [
            JobSpec.from_sweep(cell.spec, cell.sizes_mb, engine=cell.engine)
            for cell in grid.cells
        ]
    else:
        if not args.benchmark:
            raise _CLIError("submit needs a benchmark name or --grid CONFIG")
        spec, sizes = _sweep_args(args, config=nehalem_config(), num_pirate_threads=args.threads)
        jobs = [JobSpec.from_sweep(spec, sizes, engine=args.engine, run_id=args.run_id)]
    queued = deduped = cached = 0
    keys = []
    try:
        for job in jobs:
            reply = client.submit(job)
            if reply.get("dedup"):
                deduped += 1
                tag = "dedup"
            elif reply.get("cached"):
                cached += 1
                tag = "cached"
            else:
                queued += 1
                tag = "queued"
            out(f"{reply['key'][:12]} {reply['state']:8} {tag}")
            keys.append(reply["key"])
        n = len(jobs)
        hits = deduped + cached
        out(f"{n} job(s): {queued} queued, {deduped} deduped, {cached} cached")
        out(f"dedup/cache hits: {hits}/{n} ({100.0 * hits / n:.1f}%)")
        if args.wait:
            for key in keys:
                res = client.wait(key, timeout=3600.0)["result"]
                out(f"{key[:12]} done " + _stats_line(res["stats"]))
    except (ServiceError, OSError) as e:
        raise _CLIError(str(e)) from None
    return 0


def cmd_status(args, out=print) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        if args.key:
            reply = client.status(args.key)
            line = f"{reply['key'][:12]} {reply['state']}"
            if reply.get("error"):
                line += f"  error: {reply['error']}"
            out(line)
            return 0
        reply = client.stats()
        if args.json:
            out(json.dumps(reply, indent=2, sort_keys=True))
            return 0
        s = reply["stats"]
        out(
            f"jobs: {s['jobs_submitted']} submitted, {s['jobs_executed']} executed, "
            f"{s['jobs_deduped']} deduped, {s['jobs_cached']} cached, "
            f"{s['jobs_failed']} failed, {s['jobs_recovered']} recovered"
        )
        out(f"queue depth: {reply['queue_depth']}")
        store = reply["store"]
        out(
            f"store: {store['entries']}/{store['max_entries']} entries, "
            f"{store['evictions']} evictions"
        )
        out(f"uptime: {reply['uptime_s']:.1f}s")
    except (ServiceError, OSError) as e:
        raise _CLIError(str(e)) from None
    return 0


def cmd_fetch(args, out=print) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        reply = client.fetch(args.key)
    except (ServiceError, OSError) as e:
        raise _CLIError(str(e)) from None
    result = reply["result"]
    if args.json:
        out(json.dumps(result, indent=2, sort_keys=True))
        return 0
    out(f"{result['benchmark']}  engine={result['engine']}  key={reply['key'][:12]}")
    out(f"{'MB':>8} {'CPI':>8} {'BW GB/s':>8} {'fetch':>8} {'miss':>8}")
    for row in result["rows"]:
        out(
            f"{row['cache_mb']:8.2f} {row['cpi']:8.4f} {row['bandwidth_gbps']:8.3f} "
            f"{row['fetch_ratio']:8.5f} {row['miss_ratio']:8.5f}"
        )
    s = result["stats"]
    out(
        f"stats: measured={s['measured']} cache={s['cache_hits']} "
        f"journal={s['journal_hits']} quarantined={s['quarantined']}"
    )
    quality = result.get("quality")
    if quality:
        labels = ", ".join(f"{k}={v}" for k, v in sorted(quality.items()))
        out(f"quality: {labels}")
    return 0


def cmd_watch(args, out=print) -> int:
    from .service import ServiceError

    client = _service_client(args)
    if args.since < 0:
        raise _CLIError(f"--since must be >= 0, got {args.since}")
    try:
        for event in client.watch(args.key, since=args.since):
            out(json.dumps(event, sort_keys=True))
    except (ServiceError, OSError) as e:
        raise _CLIError(str(e)) from None
    return 0


def cmd_experiments(args, out=print) -> int:
    from .experiments import FULL, QUICK
    from .experiments.runall import EXPERIMENTS, run_all

    workers = _resolve_workers(args)
    only = [s for s in args.only.split(",") if s] or None
    unknown = sorted(set(only or ()) - set(EXPERIMENTS))
    if unknown:
        raise _CLIError(
            f"--only: unknown experiment id(s) {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENTS)}"
        )
    if args.engine:
        try:
            resolve_engine(args.engine)
        except ConfigError as e:
            raise _CLIError(f"--engine: {e}") from None
    if args.resume and not args.journal_dir:
        raise _CLIError("--resume needs --journal-dir")
    if args.resume and args.run_id and args.run_id != args.resume:
        raise _CLIError(f"--resume {args.resume} conflicts with --run-id {args.run_id}")
    if args.kernel:
        # the experiments build their configs internally; the env default
        # (see repro.config) is the one switch they all honor, and it is
        # inherited by parallel_map's spawned workers
        os.environ["REPRO_KERNEL"] = args.kernel
    telemetry = Telemetry() if args.telemetry else None
    chunks: list[str] = []

    def echo(text: str = "") -> None:
        out(text)
        chunks.append(str(text))

    run_all(
        FULL if args.scale == "full" else QUICK,
        args.seed,
        only,
        echo=echo,
        workers=workers,
        cache_dir=args.cache_dir or None,
        telemetry=telemetry,
        engine=args.engine or None,
        journal_dir=args.journal_dir or None,
        run_id=(args.resume or args.run_id) or None,
        resume=bool(args.resume),
    )
    if args.out:
        Path(args.out).write_text("\n".join(chunks) + "\n")
    if telemetry is not None:
        _export_telemetry(telemetry, args.telemetry, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cache Pirating (ICPP 2011) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(fn=cmd_list)

    p = sub.add_parser("curve", help="performance vs cache size (dynamic pirating)")
    p.add_argument("benchmark")
    p.add_argument("--sizes", default="8.0,6.0,4.0,2.0,1.0,0.5")
    p.add_argument("--total", type=float, default=16e6)
    p.add_argument("--interval", type=float, default=1e6)
    p.add_argument("--plot", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--retries", type=int, default=3,
        help="re-measurements allowed per invalid interval (0 disables the retry engine)",
    )
    _add_engine_args(p)
    _add_tier_args(p)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("steal", help="how much cache the Pirate can steal")
    p.add_argument("benchmark")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--interval", type=float, default=5e5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--retries", type=int, default=1,
        help="re-measurements allowed per stolen size before it is reported unachievable",
    )
    _add_engine_args(p)
    p.set_defaults(fn=cmd_steal)

    p = sub.add_parser("probe", help="pirate thread-count probe (§III-C)")
    p.add_argument("benchmark")
    p.add_argument("--max-threads", type=int, default=2)
    p.add_argument("--interval", type=float, default=4e5)
    p.add_argument("--seed", type=int, default=1)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("bandwidth", help="CPI vs available bandwidth (Bandit)")
    p.add_argument("benchmark")
    p.add_argument("--gaps", default="60,20,6,2,0.5")
    p.add_argument("--interval", type=float, default=4e5)
    p.add_argument("--seed", type=int, default=1)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_bandwidth)

    p = sub.add_parser("reuse", help="reuse-distance profile and miss model")
    p.add_argument("benchmark")
    p.add_argument("--window", type=float, default=2e6)
    p.add_argument("--sizes", default="0.5,1,2,4,8")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_reuse)

    p = sub.add_parser(
        "sweep", help="fixed-size baseline sweep (parallel executor + result cache)"
    )
    p.add_argument("benchmark")
    p.add_argument("--sizes", default="8.0,6.0,4.0,2.0,1.0,0.5")
    p.add_argument("--interval", type=float, default=1e6)
    p.add_argument("--intervals", type=int, default=2,
                   help="measurement intervals per sweep point")
    p.add_argument("--workers", type=int, default=0,
                   help="process fan-out for the sweep's points (0 = serial)")
    p.add_argument("--serial", action="store_true",
                   help="force in-process execution (conflicts with --workers)")
    p.add_argument("--cache-dir", default="",
                   help="persist completed points here; re-runs skip them")
    p.add_argument("--plot", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--retries", type=int, default=0,
        help="re-measurements allowed per invalid point (0 disables the retry engine)",
    )
    p.add_argument("--telemetry", default="",
                   help="write the run's span/metric stream to this JSONL file")
    p.add_argument("--supervise", action="store_true",
                   help="run under a supervisor policy: bounded retry with "
                        "quarantine instead of failing on a point's first fault")
    p.add_argument("--point-timeout", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget per point attempt (implies --supervise)")
    p.add_argument("--max-point-failures", type=int, default=2, metavar="N",
                   help="proven faults a point may accumulate before quarantine")
    p.add_argument("--journal-dir", default="",
                   help="write-ahead journal directory (implies --supervise); "
                        "finished points survive SIGKILL")
    p.add_argument("--run-id", default="",
                   help="journal run id (default: a fresh one, echoed at start)")
    p.add_argument("--resume", default="", metavar="RUN_ID",
                   help="continue a journaled run: replay its finished points, "
                        "execute only the remainder")
    _add_engine_args(p)
    _add_tier_args(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "cache",
        help="inspect and maintain a checksummed store: a sweep cache, "
             "<state-dir>/store or a grid's <out>/cells",
    )
    p.add_argument("action", choices=("verify", "repair", "gc"),
                   help="verify: checksum every entry (exit 1 on corruption); "
                        "repair: quarantine corrupt entries; gc: delete "
                        "quarantined/temp/stale files")
    p.add_argument("dir", help="store directory (--cache-dir of a sweep, "
                               "<state-dir>/store of serve, <out>/cells of grid)")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("stats", help="render a telemetry JSONL stream as a run report")
    p.add_argument("path", help="JSONL file written by --telemetry")
    p.add_argument("--json", action="store_true",
                   help="emit the aggregated summary as JSON instead of text")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "validate",
        help="conformance oracle: pirated cache vs reference simulator (3%% bound)",
    )
    p.add_argument("benchmarks", nargs="*",
                   help="benchmarks to judge (default: the whole suite + cigar)")
    p.add_argument("--quick", action="store_true",
                   help="quick tier: 3 sizes, reduced trace budget (default)")
    p.add_argument("--full", action="store_true",
                   help="full tier: the paper's 16-size grid at full fidelity")
    p.add_argument("--sizes", default="",
                   help="override the tier's size grid (comma-separated MB, "
                        "must be whole ways)")
    p.add_argument("--bound", type=float, default=None,
                   help="override the 3%% fetch-ratio conformance bound")
    p.add_argument("--workers", type=int, default=0,
                   help="process fan-out for per-size pirate runs (0 = serial)")
    p.add_argument("--serial", action="store_true",
                   help="force in-process execution (conflicts with --workers)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default="",
                   help="write the structured conformance report to this file")
    p.add_argument("--telemetry", default="",
                   help="write the run's span/metric stream to this JSONL file")
    _add_engine_args(p)
    _add_tier_args(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "grid",
        help="compile and run a declarative scenario grid (YAML/JSON config)",
    )
    p.add_argument("config", help="grid config file (.yaml/.yml or JSON)")
    p.add_argument("--workers", type=int, default=0,
                   help="process fan-out for each cell's sweep points (0 = serial)")
    p.add_argument("--serial", action="store_true",
                   help="force in-process execution (conflicts with --workers)")
    p.add_argument("--engine", default="",
                   help="override the grid's engine axis with one tier "
                        "(measure/surrogate/auto)")
    p.add_argument("--cache-dir", default="",
                   help="content-addressed sweep result cache; identical points "
                        "across cells, grids and runs dedupe here")
    p.add_argument("--out", default="",
                   help="results directory: per-cell artifacts plus CSV/JSONL emit")
    p.add_argument("--resume", action="store_true",
                   help="skip cells whose results already sit in --out")
    p.add_argument("--dry-run", action="store_true",
                   help="print the expanded cells without running anything")
    p.add_argument("--telemetry", default="",
                   help="write the run's span/metric stream to this JSONL file")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("experiments", help="regenerate the paper's tables/figures")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default="", help="comma-separated experiment ids")
    p.add_argument("--out", default="", help="also write the report to this file")
    p.add_argument("--workers", type=int, default=None,
                   help="process fan-out for parallelizable experiments")
    p.add_argument("--serial", action="store_true",
                   help="force serial execution (conflicts with --workers)")
    p.add_argument("--cache-dir", default="",
                   help="sweep result cache directory")
    p.add_argument("--telemetry", default="",
                   help="write the run's span/metric stream to this JSONL file")
    p.add_argument("--kernel", default=None, metavar=_KERNEL_METAVAR,
                   help="simulation engine for every experiment")
    p.add_argument("--engine", default="",
                   help="curve engine tier (measure/surrogate/auto) for "
                        "experiments that support it (currently conformance)")
    p.add_argument("--journal-dir", default="",
                   help="task journal directory: finished experiments survive SIGKILL")
    p.add_argument("--run-id", default="",
                   help="task journal run id (default: a fresh one, echoed at start)")
    p.add_argument("--resume", default="", metavar="RUN_ID",
                   help="continue a journaled run, skipping finished experiments")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser(
        "serve", help="run the curve service: an asyncio sweep server with "
                      "content-key dedup, an LRU result store and journal resume"
    )
    p.add_argument("--socket", default="", metavar="PATH",
                   help="listen on this unix socket")
    p.add_argument("--host", default="", help="listen on this TCP host")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, echoed at start)")
    p.add_argument("--state-dir", required=True,
                   help="server state root: sweep cache, journals, result store")
    p.add_argument("--job-workers", type=int, default=2, metavar="N",
                   help="jobs executing concurrently")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="per-job process fan-out for sweep points (0 = serial)")
    p.add_argument("--queue-size", type=int, default=64, metavar="N",
                   help="accepted-but-unstarted job bound (409 beyond)")
    p.add_argument("--store-max", type=int, default=1024, metavar="N",
                   help="result-store entries before LRU eviction")
    p.add_argument("--quota", type=int, default=0, metavar="N",
                   help="max unfinished jobs per client (429 beyond; 0 = unlimited)")
    p.add_argument("--point-timeout", type=float, default=None, metavar="SECONDS",
                   help="supervisor wall-clock budget per sweep point attempt")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit curve jobs to a running service "
                       "(one benchmark sweep, or every cell of a grid config)"
    )
    p.add_argument("benchmark", nargs="?", default=None)
    p.add_argument("--grid", default="", metavar="CONFIG",
                   help="submit every cell of this YAML/JSON grid config instead")
    p.add_argument("--sizes", default="8.0,6.0,4.0,2.0,1.0,0.5",
                   help="target-available sizes in MB (order pins the journal)")
    p.add_argument("--interval", type=float, default=1e6)
    p.add_argument("--intervals", type=int, default=2,
                   help="measurement intervals per sweep point")
    p.add_argument("--threads", type=int, default=1, help="pirate thread count")
    p.add_argument("--engine", choices=ENGINE_TIERS,
                   default="measure", help="curve engine tier")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--run-id", default="",
                   help="adopt this journal run id on the server (default: one "
                        "derived from the job's content key)")
    p.add_argument("--client", default="", help="client id for quota accounting")
    p.add_argument("--wait", action="store_true",
                   help="block until every submitted job finishes")
    _add_service_addr(p)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "status", help="one job's state (with KEY) or server-wide stats (without)"
    )
    p.add_argument("key", nargs="?", default="", help="job content key")
    p.add_argument("--json", action="store_true",
                   help="print the raw stats envelope")
    _add_service_addr(p)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("fetch", help="fetch a finished job's curve by content key")
    p.add_argument("key", help="job content key (from submit)")
    p.add_argument("--json", action="store_true",
                   help="print the full result payload as JSON")
    _add_service_addr(p)
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser(
        "watch", help="stream a job's progress events as JSON lines"
    )
    p.add_argument("key", help="job content key (from submit)")
    p.add_argument("--since", type=int, default=0, metavar="SEQ",
                   help="skip events with seq <= SEQ (resume a dropped stream)")
    _add_service_addr(p)
    p.set_defaults(fn=cmd_watch)

    return parser


def main(argv: list[str] | None = None, out=print) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "benchmark", None) is not None:
        known = set(BENCHMARK_NAMES) | {"cigar"} | set(ZOO_NAMES)
        if args.benchmark not in known:
            out(f"unknown benchmark {args.benchmark!r}; try: python -m repro list")
            return 2
    try:
        if getattr(args, "kernel", None) is not None:
            try:
                check_kernel(args.kernel)
            except ConfigError as e:
                raise _CLIError(f"--kernel: {e}") from None
        return args.fn(args, out=out)
    except (_CLIError, ConfigError) as e:
        # a ConfigError reaching here (e.g. a retired $REPRO_KERNEL) is
        # malformed input all the same: one line, not a traceback
        out(f"error: {e}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
