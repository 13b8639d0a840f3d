"""Parallel sweep execution with deterministic result caching.

A fixed-size sweep (§III-D) is embarrassingly parallel: every
``(target, cache_size)`` point is one independent co-run on its own
simulated machine.  This module fans those points out over a process pool
and guarantees — by construction, and under test in
``tests/test_parallel.py`` — that the assembled curve is *bit-identical* to
a serial run:

* every point is a pure function of a picklable :class:`SweepSpec` and
  :class:`SweepPoint`; nothing is shared between tasks, and no task reads
  global RNG state,
* each point's machine seed comes from :func:`derive_point_seed`, keyed by
  the run seed and the point's *content* (its stolen-bytes size), so the
  derivation is spawn-safe and stable under reordering, sharding, and
  worker-count changes,
* out-of-order completions are merged back into ordered curves by
  :mod:`repro.analysis.merge`, preserving per-point
  :class:`~repro.core.resilience.PointQuality` metadata when the sweep
  runs through the retry engine.

Completed points can be persisted in a :class:`SweepCache`: an on-disk
store keyed by a content hash of the *full* measurement configuration
(machine spec, workload spec, schedule, fault plan, retry policy, point).
Repeated sweeps and re-runs after a crash skip every point already on
disk — the cache-hit path does zero measurements.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, fields, replace
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Callable, Sequence

from ..config import MachineConfig, machine_content_token
from ..errors import MeasurementError
from ..faults.plan import FaultPlan
from ..hardware.counters import CounterSample
from ..observability import NULL_TELEMETRY, Telemetry, TelemetryFragment, ensure_telemetry
from ..rng import stable_seed
from ..store import Format, Store, checksum, unseal
from ..units import MB
from .curves import IntervalSample
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD
from .resilience import PointQuality, RetryPolicy

#: Bump when the on-disk cache entry layout changes; part of every cache key.
#: v2 wrapped the point payload in a checksummed envelope (PR 6).
CACHE_FORMAT_VERSION = 2


def derive_point_seed(run_seed: int, stolen_bytes: int) -> int:
    """Machine seed for one sweep point.

    Keyed by the point's content (its stolen size), never its position in
    the size list or any global RNG state, so the same point gets the same
    seed no matter how the sweep is ordered, chunked, or sharded across
    workers — and no matter whether workers are forked or spawned.
    """
    return stable_seed(run_seed, "sweep-point", int(stolen_bytes))


def default_chunksize(n_points: int, workers: int) -> int:
    """Points per pool task: ~4 chunks per worker, at least one point each.

    Small enough to keep all workers busy through the sweep's tail, large
    enough that task dispatch is not the bottleneck on big grids.
    """
    if n_points <= 0 or workers <= 1:
        return max(n_points, 1)
    return max(1, -(-n_points // (workers * 4)))


def default_mp_context():
    """Fork where the platform offers it (cheap), spawn otherwise.

    Either way task results are identical: points are pure functions of
    their pickled arguments, so the start method only affects startup cost.
    """
    methods = get_all_start_methods()
    return get_context("fork" if "fork" in methods else "spawn")


# -- task specifications -----------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Everything one worker needs to measure any point of a sweep.

    ``target`` is a zero-argument workload factory.  Serial (in-process)
    execution accepts any callable; pooled execution requires it to pickle
    (use :class:`~repro.workloads.target.TargetSpec`), and the result cache
    additionally requires a ``token()`` method so entries can be keyed by
    workload content.
    """

    target: Callable
    benchmark: str
    config: MachineConfig
    num_pirate_threads: int = 1
    interval_instructions: float = 1_000_000.0
    n_intervals: int = 2
    warmup_instructions: float | None = None
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD
    quantum: float | None = None
    seed: int = 0
    retry: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    #: collect per-point telemetry in the worker and ship it back on the
    #: result.  Deliberately *excluded* from :func:`spec_token`: telemetry
    #: observes a measurement, it never changes one, so flipping it must not
    #: invalidate cached points.
    telemetry: bool = False


@dataclass(frozen=True)
class SweepPoint:
    """One independent measurement task: a target cache size plus its seed."""

    index: int
    size_mb: float
    stolen_bytes: int
    seed: int


@dataclass
class PointResult:
    """Outcome of one sweep point, cache- and pickle-round-trippable.

    ``stolen_bytes``/``target_cache_bytes`` reflect what was *measured*,
    which differs from the request when the retry engine degraded the
    point to the nearest achievable steal size.
    """

    index: int
    size_mb: float
    stolen_bytes: int
    target_cache_bytes: int
    seed: int
    samples: list[IntervalSample]
    quality: PointQuality | None = None
    from_cache: bool = False
    #: True when the point was replayed from a run journal instead of
    #: measured (supervised --resume path); never persisted
    from_journal: bool = False
    #: the worker-side telemetry stream (None when telemetry is off or the
    #: point came from the cache); not persisted in the result cache
    telemetry: TelemetryFragment | None = None


@dataclass
class SweepStats:
    """Where a sweep's points came from, and what supervision had to do."""

    measured: int = 0
    cache_hits: int = 0
    workers: int = 0
    chunks: int = 0
    #: cache entries found corrupt (and quarantined) while loading
    cache_corrupt: int = 0
    #: points replayed from a run journal on --resume
    journal_hits: int = 0
    #: points the supervisor gave up on after its failure budget
    quarantined: int = 0
    #: extra point submissions beyond each point's first (supervised runs)
    retries: int = 0
    #: pool respawns after worker crashes or watchdog kills
    respawns: int = 0
    #: wall-clock point timeouts the watchdog fired
    timeouts: int = 0
    #: journal run id of a supervised run (None when unjournaled)
    run_id: str | None = None


def sweep_points(spec: SweepSpec, sizes_mb: Sequence[float]) -> list[SweepPoint]:
    """The sweep's task list, one point per requested size."""
    if not sizes_mb:
        raise MeasurementError("need at least one cache size")
    points = []
    for i, size_mb in enumerate(sizes_mb):
        stolen = spec.config.l3.size - int(size_mb * MB)
        if not 0 <= stolen <= spec.config.l3.size:
            raise MeasurementError(
                f"cannot leave the Target {size_mb}MB of a "
                f"{spec.config.l3.size / MB:g}MB L3"
            )
        points.append(
            SweepPoint(
                index=i,
                size_mb=size_mb,
                stolen_bytes=stolen,
                seed=derive_point_seed(spec.seed, stolen),
            )
        )
    return points


# -- the per-point task (module-level: must pickle by reference) -------------------


def measure_sweep_point(spec: SweepSpec, point: SweepPoint) -> PointResult:
    """Measure one point.  Pure: no shared state, no global RNG.

    When ``spec.telemetry`` is set, the point collects its own
    :class:`~repro.observability.Telemetry` — created *here*, not passed in,
    so the collection is identical whether the point runs in-process or in a
    pool worker — and ships it back as a fragment on the result.
    """
    from .harness import measure_fixed_size
    from .resilience import measure_point_resilient

    tel = Telemetry() if spec.telemetry else NULL_TELEMETRY
    with tel.span(
        "point", index=point.index, size_mb=point.size_mb, pid=os.getpid()
    ) as sp:
        if spec.retry is not None:
            result, quality = measure_point_resilient(
                spec.target,
                point.stolen_bytes,
                config=spec.config,
                policy=spec.retry,
                fault_plan=spec.fault_plan,
                num_pirate_threads=spec.num_pirate_threads,
                interval_instructions=spec.interval_instructions,
                n_intervals=spec.n_intervals,
                warmup_instructions=spec.warmup_instructions,
                threshold=spec.threshold,
                seed=point.seed,
                quantum=spec.quantum,
                telemetry=tel,
            )
        else:
            quality = None
            result = measure_fixed_size(
                spec.target,
                point.stolen_bytes,
                config=spec.config,
                num_pirate_threads=spec.num_pirate_threads,
                interval_instructions=spec.interval_instructions,
                n_intervals=spec.n_intervals,
                warmup_instructions=spec.warmup_instructions,
                threshold=spec.threshold,
                seed=point.seed,
                quantum=spec.quantum,
                fault_plan=spec.fault_plan,
                telemetry=tel,
            )
        sp.add_cycles(result.wall_cycles)
    return PointResult(
        index=point.index,
        size_mb=point.size_mb,
        stolen_bytes=result.stolen_bytes,
        target_cache_bytes=result.target_cache_bytes,
        seed=point.seed,
        samples=result.samples,
        quality=quality,
        telemetry=tel.fragment() if spec.telemetry else None,
    )


def _measure_chunk(spec: SweepSpec, chunk: list[SweepPoint]) -> list[PointResult]:
    """One pool task: a batch of points (the chunking policy's unit)."""
    return [measure_sweep_point(spec, p) for p in chunk]


# -- deterministic result cache ----------------------------------------------------


def _fault_plan_token(plan: FaultPlan | None) -> object:
    if plan is None:
        return None
    return {"seed": plan.seed, "events": [asdict(e) for e in plan.events]}


def spec_token(spec: SweepSpec) -> dict:
    """Canonical description of everything that can change a measurement.

    Raises :class:`~repro.errors.MeasurementError` when the target factory
    cannot be described by content (no ``token()``), because a cache keyed
    by object identity would silently serve wrong results.
    """
    token_fn = getattr(spec.target, "token", None)
    if token_fn is None:
        raise MeasurementError(
            "result caching needs a content-keyed target factory: pass a "
            "repro.workloads.TargetSpec (or any factory with a token() method) "
            "instead of a closure"
        )
    return {
        "cache_format": CACHE_FORMAT_VERSION,
        # machine_content_token drops the kernel field: the C walk and the
        # scalar loops are bit-identical, so a point cached (or a journal head
        # pinned) under one kernel mode must hit under the other.
        "machine": machine_content_token(spec.config),
        "workload": token_fn(),
        "schedule": {
            "num_pirate_threads": spec.num_pirate_threads,
            "interval_instructions": spec.interval_instructions,
            "n_intervals": spec.n_intervals,
            "warmup_instructions": spec.warmup_instructions,
            "threshold": spec.threshold,
            "quantum": spec.quantum,
        },
        "retry": asdict(spec.retry) if spec.retry is not None else None,
        "fault_plan": _fault_plan_token(spec.fault_plan),
    }


def point_cache_key(spec: SweepSpec, point: SweepPoint) -> str:
    """Content hash naming one point's cache entry."""
    token = spec_token(spec)
    token["point"] = {"stolen_bytes": point.stolen_bytes, "seed": point.seed}
    return checksum(token)


def sweep_spec_sha(spec: SweepSpec, sizes_mb: Sequence[float]) -> str:
    """Content hash of a whole sweep: the spec token plus its size grid.

    This is the identity a run journal pins in its head record — resuming a
    run id under a different spec or size list is refused up front instead
    of silently mixing measurements from two configurations.
    """
    token = spec_token(spec)
    token["sizes_mb"] = [float(s) for s in sizes_mb]
    # the run seed is not in spec_token (point cache keys carry each point's
    # derived seed instead) but it does change every measurement of a sweep
    token["seed"] = spec.seed
    return checksum(token)


def _sample_to_dict(s: IntervalSample) -> dict:
    return {
        "target_cache_bytes": s.target_cache_bytes,
        "target": {f.name: getattr(s.target, f.name) for f in fields(CounterSample)},
        "pirate_fetch_ratio": s.pirate_fetch_ratio,
        "valid": s.valid,
        "start_cycle": s.start_cycle,
        "wall_cycles": s.wall_cycles,
    }


def _sample_from_dict(d: dict) -> IntervalSample:
    return IntervalSample(
        target_cache_bytes=d["target_cache_bytes"],
        target=CounterSample(**d["target"]),
        pirate_fetch_ratio=d["pirate_fetch_ratio"],
        valid=d["valid"],
        start_cycle=d["start_cycle"],
        wall_cycles=d["wall_cycles"],
    )


def result_to_payload(result: PointResult) -> dict:
    """A point result as pure-JSON payload (the cache/journal wire format)."""
    return {
        "index": result.index,
        "size_mb": result.size_mb,
        "stolen_bytes": result.stolen_bytes,
        "target_cache_bytes": result.target_cache_bytes,
        "seed": result.seed,
        "samples": [_sample_to_dict(s) for s in result.samples],
        "quality": asdict(result.quality) if result.quality is not None else None,
    }


def result_from_payload(
    payload: dict, *, from_cache: bool = False, from_journal: bool = False
) -> PointResult:
    """Rebuild a :class:`PointResult` from :func:`result_to_payload` output.

    Raises ``KeyError``/``TypeError`` on structurally garbled payloads —
    callers decide whether that means corruption (cache) or a torn record
    (journal replay already filters those).
    """
    q = payload["quality"]
    return PointResult(
        index=payload["index"],
        size_mb=payload["size_mb"],
        stolen_bytes=payload["stolen_bytes"],
        target_cache_bytes=payload["target_cache_bytes"],
        seed=payload["seed"],
        samples=[_sample_from_dict(d) for d in payload["samples"]],
        quality=PointQuality(**q) if q is not None else None,
        from_cache=from_cache,
        from_journal=from_journal,
    )


#: the sweep cache's envelope: ``cache_format`` 2 over a point payload
CACHE_FORMAT = Format(
    "cache_format", CACHE_FORMAT_VERSION, lambda p: result_from_payload(p, from_cache=True)
)


class SweepCache:
    """On-disk store of completed sweep points, one entry per point key.

    A view over a :class:`~repro.store.Store` (``disk``): atomic writes,
    checksummed envelopes, damaged entries read as quarantined misses.
    The view adds the point payload codec and counts every quarantine on
    ``corruption_count`` and, when telemetry is live, ``cache_corrupt_total``.
    """

    def __init__(self, root: str | Path, telemetry=None):
        self.telemetry = ensure_telemetry(telemetry)
        #: corrupt entries seen (and quarantined) through this instance
        self.corruption_count = 0
        self.disk = Store(root, CACHE_FORMAT, on_corrupt=self._count_corrupt)

    def _count_corrupt(self, path: Path, reason: str) -> None:
        self.corruption_count += 1
        self.telemetry.count("cache_corrupt_total")
        self.telemetry.event("cache_corrupt", entry=path.name, reason=reason)

    @staticmethod
    def _decode(text: str) -> tuple[PointResult | None, str | None]:
        """(result, why-it-is-corrupt), as :func:`repro.store.unseal`."""
        return unseal(text, (CACHE_FORMAT,))

    def load(self, key: str) -> PointResult | None:
        """The cached result for ``key``, or None on a miss (never raises)."""
        return self.disk.load(key, self._decode)

    def store(self, key: str, result: PointResult) -> None:
        """Persist ``result`` under ``key`` atomically, with its checksum."""
        self.disk.save(key, result_to_payload(result))


# -- the executor ------------------------------------------------------------------


def _check_picklable(spec: SweepSpec) -> None:
    try:
        pickle.dumps(spec)
    except Exception as e:
        raise MeasurementError(
            f"sweep spec does not pickle, so it cannot cross a worker "
            f"boundary ({e}); pass a repro.workloads.TargetSpec instead of a "
            f"lambda/closure, or run with workers=0"
        ) from None


def _worker_busy_seconds(fragments: dict[int, TelemetryFragment]) -> dict[int, float]:
    """Wall seconds each worker pid spent inside ``point`` spans."""
    busy: dict[int, float] = {}
    for frag in fragments.values():
        pids: dict[int, int] = {}
        for r in frag.records:
            if r["type"] == "span_start" and r["name"] == "point":
                pids[r["id"]] = r["attrs"].get("pid", 0)
            elif r["type"] == "span_end" and r["name"] == "point" and r["id"] in pids:
                pid = pids[r["id"]]
                busy[pid] = busy.get(pid, 0.0) + r.get("wall_s", 0.0)
    return busy


def run_sweep(
    spec: SweepSpec,
    sizes_mb: Sequence[float],
    *,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    chunksize: int | None = None,
    mp_context=None,
    telemetry=None,
) -> tuple[list[PointResult], SweepStats]:
    """Execute a sweep's points; returns (results, stats).

    ``workers=0`` (or 1) runs the points in-process, in order; ``workers>=2``
    fans them out over a process pool in chunks (``chunksize`` overrides the
    default policy), harvesting completions out of order.  Either way each
    point's result is identical — same spec, same derived seed, same pure
    task function.  Results are returned in completion order; use
    :func:`repro.analysis.merge.assemble_curve` (or sort by ``index``) to
    order them.

    With ``cache_dir`` set, points whose key is already on disk are loaded
    instead of measured, and newly measured points are persisted — a
    re-run after a crash resumes where it stopped.

    A live :class:`~repro.observability.Telemetry` passed as ``telemetry``
    wraps the sweep in a span, accounts cache hits/misses, and absorbs each
    measured point's worker-side fragment *in point order* (so the merged
    stream is independent of completion order).  Pool bookkeeping lands
    under ``exec_``-prefixed names: one ``exec_pool`` span, an
    ``exec_pool_spawns_total`` counter, and per-worker
    ``exec_worker_utilization`` gauges.
    """
    if workers < 0:
        raise MeasurementError(f"workers must be >= 0, got {workers}")
    tel = ensure_telemetry(telemetry)
    if tel.enabled and not spec.telemetry:
        spec = replace(spec, telemetry=True)
    points = sweep_points(spec, sizes_mb)
    cache = SweepCache(cache_dir, telemetry=tel) if cache_dir is not None else None
    stats = SweepStats(workers=workers)

    with tel.span("sweep", benchmark=spec.benchmark, n_points=len(points)):
        results: list[PointResult] = []
        pending: list[SweepPoint] = []
        keys: dict[int, str] = {}
        for p in points:
            if cache is not None:
                keys[p.index] = point_cache_key(spec, p)
                hit = cache.load(keys[p.index])
                if hit is not None:
                    results.append(hit)
                    stats.cache_hits += 1
                    tel.count("cache_hits_total")
                    tel.event("cache_hit", index=p.index, size_mb=p.size_mb)
                    continue
                tel.count("cache_misses_total")
            pending.append(p)

        fragments: dict[int, TelemetryFragment] = {}

        def record(result: PointResult) -> None:
            results.append(result)
            stats.measured += 1
            if result.telemetry is not None:
                fragments[result.index] = result.telemetry
            if cache is not None:
                cache.store(keys[result.index], result)

        pool_wall = 0.0
        n_workers = 0
        if workers >= 2 and len(pending) >= 2:
            _check_picklable(spec)
            if chunksize is not None:
                chunk = chunksize
            else:
                chunk = default_chunksize(len(pending), workers)
            chunks = [pending[i : i + chunk] for i in range(0, len(pending), chunk)]
            stats.chunks = len(chunks)
            ctx = mp_context if mp_context is not None else default_mp_context()
            n_workers = min(workers, len(chunks))
            tel.count("exec_pool_spawns_total")
            with tel.span("exec_pool", workers=n_workers, chunks=len(chunks)):
                t0 = time.perf_counter()
                with ProcessPoolExecutor(
                    max_workers=n_workers, mp_context=ctx
                ) as pool:
                    not_done = {pool.submit(_measure_chunk, spec, c) for c in chunks}
                    try:
                        while not_done:
                            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                            for fut in done:
                                for result in fut.result():
                                    record(result)
                    except BaseException:
                        # Ctrl-C (or any abort) must not be eaten by the
                        # harvest loop, and must not hang in the pool's
                        # __exit__ waiting for undispatched chunks: drop
                        # everything not yet running, then re-raise.
                        for fut in not_done:
                            fut.cancel()
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise
                pool_wall = time.perf_counter() - t0
        else:
            stats.chunks = 1 if pending else 0
            for p in pending:
                record(measure_sweep_point(spec, p))

        # absorb worker streams in point-index order: the parent's merged
        # stream (and hence the aggregated summary) no longer depends on
        # which worker finished first
        for index in sorted(fragments):
            tel.absorb(fragments[index])

        if cache is not None:
            stats.cache_corrupt = cache.corruption_count
        if tel.enabled and pool_wall > 0.0 and n_workers > 0:
            busy = _worker_busy_seconds(fragments)
            tel.gauge(
                "exec_worker_utilization",
                min(sum(busy.values()) / (n_workers * pool_wall), 1.0),
            )
            for pid, seconds in sorted(busy.items()):
                tel.gauge(
                    "exec_worker_utilization", min(seconds / pool_wall, 1.0), pid=pid
                )
    return results, stats


def parallel_map(fn: Callable, items: Sequence, *, workers: int = 0, mp_context=None) -> list:
    """Order-preserving map over independent items, optionally in processes.

    The coarse-grained sibling of :func:`run_sweep` for work that is one
    indivisible task per item (e.g. one dynamic-pirating execution per
    benchmark in Fig. 8).  ``fn`` and every item must pickle when
    ``workers >= 2``; results come back in input order regardless of
    completion order, so worker count never changes the output.
    """
    if workers < 0:
        raise MeasurementError(f"workers must be >= 0, got {workers}")
    items = list(items)
    if workers < 2 or len(items) < 2:
        return [fn(item) for item in items]
    ctx = mp_context if mp_context is not None else default_mp_context()
    with ProcessPoolExecutor(max_workers=min(workers, len(items)), mp_context=ctx) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]
