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
(machine spec, workload spec, schedule, retry policy, point).
Repeated sweeps and re-runs after a crash skip every point already on
disk — the cache-hit path does zero measurements.

:func:`run_sweep` is the one executor for every engine tier
(:data:`ENGINE_TIERS`): ``surrogate`` and ``auto`` predict points through
:mod:`repro.surrogate` behind the same cache lookup, the same
:class:`SweepStats` and, for ``auto``'s grey points, the same measured path.

A :class:`SupervisorPolicy` makes it a supervisor for hosts that OOM-kill
workers, hang points and rot caches.  Its invariant, proven under
injected chaos in ``tests/test_chaos.py``:

    Under any schedule of worker kills, point hangs, in-worker errors and
    cache corruption, a supervised sweep either returns curves
    bit-identical to a clean serial run or explicitly quarantines the
    affected points — never silently wrong data.

* **Watchdog** — with ``point_timeout_s`` set, a point running past its
  wall-clock budget is killed (the pool's processes are terminated),
  charged one failure, and retried; co-resident points are requeued free.
* **Crash recovery** — a :class:`BrokenProcessPool` cannot say *which*
  in-flight point killed the worker, so nobody is blamed: the pool is
  respawned and every in-flight point becomes a *suspect*, re-run solo so
  a repeat crash is unambiguous.  Only proven faults (a solo crash, a
  timeout, an in-worker exception) count against a point.
* **Quarantine** — a point reaching ``max_point_failures`` proven faults
  is recorded as an explicit :func:`quarantined_result` instead of
  sinking the sweep.  Without a policy, the first proven fault raises.
* **Durability** — with a journal directory, every point transition is
  written ahead to a :class:`~repro.core.journal.RunJournal`; ``resume``
  replays finished and quarantined points and executes exactly the
  remainder, even after SIGKILL.

Chaos (:mod:`repro.faults.chaos`) reaches workers through the environment,
never through the spec — enabling it cannot change a cache key.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, replace
from multiprocessing import get_all_start_methods, get_context
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, Sequence

from ..config import MachineConfig, machine_content_token
from ..errors import ConfigError, MeasurementError
from ..faults.chaos import apply_chaos, chaos_from_env
from ..hardware.counters import CounterSample
from ..observability import NULL_TELEMETRY, Telemetry, TelemetryFragment, ensure_telemetry
from ..rng import stable_seed
from ..store import Format, Store, checksum, unseal
from ..units import MB
from .curves import IntervalSample
from .journal import JournalState, RunJournal, new_run_id
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD
from .resilience import PointQuality, RetryPolicy

#: Bump when the on-disk cache entry layout changes; part of every cache key.
#: v2 wrapped the point payload in a checksummed envelope (PR 6).
CACHE_FORMAT_VERSION = 2


def derive_point_seed(run_seed: int, stolen_bytes: int) -> int:
    """Machine seed for one sweep point.

    Keyed by the point's content (its stolen size), never its position in
    the size list or any global RNG state, so the same point gets the same
    seed no matter how the sweep is ordered or sharded across
    workers — and no matter whether workers are forked or spawned.
    """
    return stable_seed(run_seed, "sweep-point", int(stolen_bytes))


def default_mp_context():
    """Fork where the platform offers it (cheap), spawn otherwise.

    Either way task results are identical: points are pure functions of
    their pickled arguments, so the start method only affects startup cost.
    """
    methods = get_all_start_methods()
    return get_context("fork" if "fork" in methods else "spawn")


#: The engine tiers :func:`run_sweep` dispatches between (DESIGN.md §9):
#: ``measure`` co-runs Target and Pirate on the simulated machine,
#: ``surrogate`` predicts every point from one reuse-distance profile
#: (:mod:`repro.surrogate`), ``auto`` predicts first and measures the
#: points the model flags as low-confidence.
ENGINE_TIERS = ("measure", "surrogate", "auto")


def resolve_engine(name: str) -> str:
    """Validate an engine-tier name (:class:`~repro.errors.ConfigError` on
    an unknown tier); returns the name unchanged."""
    if name not in ENGINE_TIERS:
        raise ConfigError(
            f"unknown engine {name!r}: choose from {', '.join(ENGINE_TIERS)}"
        )
    return name


def check_sweep_engine(engine: str, *, retry=None, supervised: bool = False) -> str:
    """Validate ``engine`` against the sweep's other options; returns it.

    :class:`~repro.errors.ConfigError` where an analytic tier would
    silently ignore an option: ``surrogate`` and ``auto`` refuse
    supervision and journaling (``supervised``), ``surrogate`` refuses a
    retry policy.  :func:`run_sweep` calls it, and so does ``repro sweep``
    before it prints anything.
    """
    engine = resolve_engine(engine)
    if engine != "measure" and supervised:
        raise ConfigError(
            f"engine {engine!r} conflicts with supervision and journaling: "
            "analytic sweeps have no long-running points to watch"
        )
    if engine == "surrogate" and retry is not None:
        raise ConfigError(
            "engine 'surrogate' conflicts with a retry policy: it measures "
            "nothing to retry"
        )
    return engine


# -- task specifications -----------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Everything one worker needs to measure any point of a sweep.

    ``target`` is a zero-argument workload factory.  Serial (in-process)
    execution accepts any callable; pooled execution requires it to pickle
    (use :class:`~repro.workloads.target.TargetSpec`), and the result cache
    additionally requires a ``token()`` method so entries can be keyed by
    workload content.

    The one checked description of a sweep: ``repro sweep``/``submit``, the
    wire decoder and the grid compiler all build one, and its
    ``__post_init__`` holds the schedule rules (sizes: :func:`sweep_points`).
    A refusal is a one-line ``ConfigError`` led by the field name, which
    each front end prefixes with its own location.  Numbers are stored
    normalised (``60000`` as ``60000.0``): two spellings, one content key.
    """

    target: Callable
    benchmark: str
    config: MachineConfig
    num_pirate_threads: int = 1
    interval_instructions: float = 1_000_000.0
    n_intervals: int = 2
    warmup_instructions: float | None = None
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD
    seed: int = 0
    retry: RetryPolicy | None = None
    #: collect per-point telemetry in the worker and ship it back on the
    #: result.  Deliberately *excluded* from :func:`spec_token`: telemetry
    #: observes a measurement, it never changes one, so flipping it must not
    #: invalidate cached points.
    telemetry: bool = False

    def __post_init__(self) -> None:
        for name, ok, rule, cast in _SPEC_RULES:
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {rule}, got {value!r}")
            object.__setattr__(self, name, cast(value))


def _is_integer(value) -> bool:
    """An integer; a bool is not one (``True`` is no thread count)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _finite(value) -> bool:
    """A finite real number; a bool is not one (``True`` is no interval).
    Every integer is finite, also one too large for a float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    return isinstance(value, Integral) or math.isfinite(value)


#: upper bounds on the work one sweep point asks for: 2,000x the longest
#: interval (5M instructions, the full scale's "1B" Table III row; warm-ups
#: share the bound) and 1,000x the most intervals (10) any scale or CLI
#: default measures, so a request (a wire job above all) cannot queue a
#: sweep that never ends
MAX_INTERVAL_INSTRUCTIONS = 1e10
MAX_INTERVALS = 10_000

#: the schedule rules of a SweepSpec: (field, test, rule as worded, stored type)
_SPEC_RULES = (
    ("benchmark", lambda v: isinstance(v, str), "a string", str),
    ("num_pirate_threads", lambda v: _is_integer(v) and v >= 1, "an integer >= 1", int),
    ("interval_instructions",
     lambda v: _finite(v) and 0 < v <= MAX_INTERVAL_INSTRUCTIONS,
     f"a finite number > 0 and <= {MAX_INTERVAL_INSTRUCTIONS:g}", float),
    ("n_intervals", lambda v: _is_integer(v) and 1 <= v <= MAX_INTERVALS,
     f"an integer from 1 to {MAX_INTERVALS}", int),
    ("warmup_instructions",
     lambda v: v is None or (_finite(v) and 0 <= v <= MAX_INTERVAL_INSTRUCTIONS),
     f"None or a finite number >= 0 and <= {MAX_INTERVAL_INSTRUCTIONS:g}",
     lambda v: None if v is None else float(v)),
    ("seed", lambda v: _is_integer(v) and -(2**63) <= v < 2**64,
     "an integer that fits in 64 bits (-2**63 to 2**64 - 1)", int),
)


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
    #: measured (the --resume path); never persisted
    from_journal: bool = False
    #: the worker-side telemetry stream (None when telemetry is off or the
    #: point came from the cache); not persisted in the result cache
    telemetry: TelemetryFragment | None = None
    #: supervisor attempts this sweep made at the point, the last one
    #: measuring it (1 from the cache or the journal); never persisted
    attempts: int = field(default=1, compare=False)


@dataclass
class SweepStats:
    """Where a sweep's points came from, and what supervision had to do."""

    measured: int = 0
    cache_hits: int = 0
    workers: int = 0
    #: cache entries found corrupt (and quarantined) while loading
    cache_corrupt: int = 0
    #: points replayed from a run journal on --resume
    journal_hits: int = 0
    #: points the supervisor gave up on after its failure budget
    quarantined: int = 0
    #: extra point attempts beyond each point's first (retries, solo re-runs)
    retries: int = 0
    #: pool respawns after worker crashes or watchdog kills
    respawns: int = 0
    #: wall-clock point timeouts the watchdog fired
    timeouts: int = 0
    #: journal run id of a journaled run (None when unjournaled)
    run_id: str | None = None


def sweep_points(spec: SweepSpec, sizes_mb: Sequence[float]) -> list[SweepPoint]:
    """The sweep's task list, one point per requested size (as a float).

    The one place sweep sizes are checked: at least one, each a finite
    number in (0, L3] MB, else a ``ConfigError`` led by ``sizes_mb``."""
    if len(sizes_mb) == 0:
        raise ConfigError("sizes_mb needs at least one cache size")
    l3_mb = spec.config.l3.size / MB
    points = []
    for i, size_mb in enumerate(sizes_mb):
        if not (_finite(size_mb) and size_mb > 0):
            raise ConfigError(f"sizes_mb must hold finite numbers > 0, got {size_mb!r}")
        if size_mb > l3_mb:
            raise ConfigError(f"sizes_mb: {size_mb:g}MB exceeds the {l3_mb:g}MB L3")
        stolen = spec.config.l3.size - int(size_mb * MB)
        points.append(
            SweepPoint(
                index=i,
                size_mb=float(size_mb),
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
                num_pirate_threads=spec.num_pirate_threads,
                interval_instructions=spec.interval_instructions,
                n_intervals=spec.n_intervals,
                warmup_instructions=spec.warmup_instructions,
                threshold=spec.threshold,
                seed=point.seed,
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


# -- deterministic result cache ----------------------------------------------------


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
            # the retired harness-level quantum override, fixed at None like
            # ``fault_plan`` below, so no stored key moves
            "quantum": None,
        },
        "retry": asdict(spec.retry) if spec.retry is not None else None,
        # the retired in-simulation fault plan, fixed at None: keys written
        # before its removal (sweep cache, journals, grid cells, service
        # store) stay valid
        "fault_plan": None,
    }


def point_cache_key(spec: SweepSpec, point: SweepPoint, token: dict | None = None) -> str:
    """Content hash naming one point's cache entry.

    ``token`` is ``spec_token(spec)`` (or an engine's extension of it)
    built once per sweep by the caller; it is read, never modified.
    """
    if token is None:
        token = spec_token(spec)
    point_token = {"stolen_bytes": point.stolen_bytes, "seed": point.seed}
    return checksum({**token, "point": point_token})


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


# -- supervision policy and the per-point pool task --------------------------------

#: How often a supervised pool loop wakes to check watchdogs and count a
#: liveness heartbeat (``exec_supervisor_heartbeats_total``).
HEARTBEAT_INTERVAL_S = 0.2


@dataclass(frozen=True)
class SupervisorPolicy:
    """The failure budget and cadence of a supervised sweep.

    ``point_timeout_s`` is wall-clock per point *attempt* (None disables
    the watchdog); ``max_point_failures`` is how many *proven* faults —
    solo crashes, timeouts, in-worker exceptions; never ambiguous pool
    breaks — a point may accumulate before quarantine.  The pool loop
    wakes every :data:`HEARTBEAT_INTERVAL_S` to check watchdogs.
    """

    point_timeout_s: float | None = None
    max_point_failures: int = 2

    def __post_init__(self) -> None:
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ConfigError(
                f"point_timeout_s must be positive or None, got {self.point_timeout_s}"
            )
        if self.max_point_failures < 1:
            raise ConfigError(
                f"max_point_failures must be >= 1, got {self.max_point_failures}"
            )


def _point_task(spec: SweepSpec, point: SweepPoint, attempt: int) -> PointResult:
    """One pool task: the chaos hook, then the pure point.

    Module-level so it pickles by reference; the chaos plan arrives through
    the worker's environment (:func:`~repro.faults.chaos.chaos_from_env`),
    so the measurement arguments — and hence cache keys — are identical
    with and without chaos.
    """
    apply_chaos(chaos_from_env(), point.index, attempt)
    return measure_sweep_point(spec, point)


def quarantined_result(
    spec: SweepSpec, point: SweepPoint, *, attempts: int, reasons: Sequence[str]
) -> PointResult:
    """The explicit tombstone a quarantined point leaves in the results.

    Empty samples plus a ``valid=False`` quality record whose reasons end
    in ``"quarantined"`` — downstream merging yields a quality entry with
    no curve point, so consumers see *that* the point is missing and *why*,
    instead of silently wrong data.
    """
    reason_list = [str(r) for r in reasons]
    if "quarantined" not in reason_list:
        reason_list.append("quarantined")
    quality = PointQuality(
        requested_mb=point.size_mb,
        measured_mb=point.size_mb,
        attempts=max(int(attempts), 1),
        pirate_fetch_ratio=0.0,
        valid=False,
        reasons=reason_list,
    )
    return PointResult(
        index=point.index,
        size_mb=point.size_mb,
        stolen_bytes=point.stolen_bytes,
        target_cache_bytes=spec.config.l3.size - point.stolen_bytes,
        seed=point.seed,
        samples=[],
        quality=quality,
    )


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


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers (the watchdog's only lever on a running task).

    ``concurrent.futures`` cannot cancel a running future, so a wall-clock
    timeout is enforced the only way possible: kill the processes and let
    the resulting :class:`BrokenProcessPool` funnel into the unified
    respawn path.  Reaches into ``pool._processes`` (guarded — a stdlib
    that renames it degrades to waiting the point out).
    """
    processes = getattr(pool, "_processes", None)
    if not processes:
        return
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass


class _Sweep:
    """One sweep's execution state: results, stats, journal and fault budget."""

    def __init__(
        self,
        spec: SweepSpec,
        policy: SupervisorPolicy | None,
        stats: SweepStats,
        tel: Telemetry,
        cache: SweepCache | None,
    ):
        self.spec = spec
        self.policy = policy
        self.stats = stats
        self.tel = tel
        self.cache = cache
        self.journal: RunJournal | None = None
        self.results: list[PointResult] = []
        #: point indexes replayed from the journal (never re-executed)
        self.settled: set[int] = set()
        self.keys: dict[int, str] = {}
        self.fragments: dict[int, TelemetryFragment] = {}
        self.attempts: dict[int, int] = {}
        self.fail_reasons: dict[int, list[str]] = {}

    def lookup(self, points: list[SweepPoint], token: dict | None) -> list[SweepPoint]:
        """Load every point already cached under ``token``; return the misses.

        ``token`` is the sweep's measured or surrogate token, built once.  A
        hit takes the index of the point that found it: entries are keyed
        by content, not by their position in the sweep that stored them.
        """
        if self.cache is None:
            return points
        pending = []
        for p in points:
            key = self.keys[p.index] = point_cache_key(self.spec, p, token)
            hit = self.cache.load(key)
            if hit is None:
                self.tel.count("cache_misses_total")
                pending.append(p)
                continue
            hit.index = p.index
            self.results.append(hit)
            self.stats.cache_hits += 1
            self.tel.count("cache_hits_total")
            self.tel.event("cache_hit", index=p.index, size_mb=p.size_mb)
            if self.journal is not None:
                self.journal.mark_done(p.index, result_to_payload(hit))
        return pending

    def predict(
        self, points: list[SweepPoint], surrogate, *, escalate: bool
    ) -> list[SweepPoint]:
        """Answer ``points`` analytically; return the grey ones to measure.

        With ``escalate`` (the ``auto`` tier) every point the model flags
        as low-confidence leaves the results and comes back for the
        measured engine, as the same :class:`SweepPoint`: same index, same
        derived seed, so it is bit-identical to a direct measured sweep.
        """
        # imported per call: the surrogate package imports this module
        from ..surrogate.engine import run_surrogate_sweep, surrogate_token

        token = surrogate_token(self.spec, surrogate) if self.cache is not None else None
        pending = self.lookup(points, token)
        if pending:
            for result in run_surrogate_sweep(
                self.spec, pending, policy=surrogate, telemetry=self.tel
            ):
                self.record(result)
        if not escalate:
            return []
        grey = {
            r.index for r in self.results if r.quality is not None and not r.quality.valid
        }
        if not grey:
            return []
        self.results = [r for r in self.results if r.index not in grey]
        escalated = [p for p in points if p.index in grey]
        self.tel.count("surrogate_escalations_total", len(escalated))
        self.tel.event(
            "surrogate_escalation",
            benchmark=self.spec.benchmark,
            sizes_mb=[p.size_mb for p in escalated],
        )
        return escalated

    def record(self, result: PointResult) -> None:
        result.attempts = self.attempts.get(result.index, 1)
        self.results.append(result)
        self.stats.measured += 1
        if result.telemetry is not None:
            self.fragments[result.index] = result.telemetry
        if self.cache is not None:
            self.cache.store(self.keys[result.index], result)
        if self.journal is not None:
            self.journal.mark_done(result.index, result_to_payload(result))

    def fail(self, point: SweepPoint, reason: str, error: Exception) -> bool:
        """Charge one proven fault; True when the point is now quarantined.

        Unsupervised (no policy), the first proven fault raises ``error``.
        """
        if self.policy is None:
            raise error
        reasons = self.fail_reasons.setdefault(point.index, [])
        reasons.append(reason)
        self.tel.event(
            "supervisor_point_failure",
            index=point.index,
            reason=reason,
            failures=len(reasons),
        )
        if len(reasons) < self.policy.max_point_failures:
            return False
        attempts = self.attempts.get(point.index, 0)
        result = quarantined_result(self.spec, point, attempts=attempts, reasons=reasons)
        self.results.append(result)
        self.stats.quarantined += 1
        self.tel.count("quarantined_points_total")
        self.tel.event(
            "point_quarantined",
            index=point.index,
            attempts=attempts,
            reasons=result.quality.reasons,
        )
        if self.journal is not None:
            self.journal.mark_quarantined(
                point.index, attempts=attempts, reasons=result.quality.reasons
            )
        return True

    def open_journal(
        self, points, sizes_mb, journal_dir, run_id, resume: bool, workers: int
    ) -> str:
        """Start (or resume, replaying settled points) the run journal."""
        spec_sha = sweep_spec_sha(self.spec, sizes_mb)
        if not resume:
            run_id = run_id or new_run_id()
            self.journal = RunJournal.start(
                journal_dir,
                run_id,
                spec_sha=spec_sha,
                sizes_mb=[float(s) for s in sizes_mb],
                meta={"benchmark": self.spec.benchmark, "workers": workers},
            )
            return run_id
        state = JournalState.load(journal_dir, run_id)
        if state.spec_sha != spec_sha:
            raise MeasurementError(
                f"journal {run_id!r} was written by a different sweep "
                f"(spec {state.spec_sha[:12]}.. != {spec_sha[:12]}..); "
                f"refusing to resume across configurations"
            )
        replays = [(i, "done", p) for i, p in sorted(state.payloads.items())]
        replays += [(i, "quarantined", q) for i, q in sorted(state.quarantined.items())]
        for index, kind, data in replays:
            if not 0 <= index < len(points) or index in self.settled:
                continue
            if kind == "done":
                self.results.append(result_from_payload(data, from_journal=True))
            else:
                self.results.append(
                    quarantined_result(
                        self.spec,
                        points[index],
                        attempts=data.get("attempts", 1),
                        reasons=data.get("reasons", []),
                    )
                )
                self.stats.quarantined += 1
            self.settled.add(index)
            self.stats.journal_hits += 1
            self.tel.count("journal_replays_total")
            self.tel.event("journal_replay", index=index, state=kind)
        self.journal = RunJournal.resume(journal_dir, run_id)
        return run_id


def run_sweep(
    spec: SweepSpec,
    sizes_mb: Sequence[float],
    *,
    engine: str = "measure",
    surrogate=None,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    policy: SupervisorPolicy | None = None,
    journal_dir: str | Path | None = None,
    run_id: str | None = None,
    resume: bool = False,
    mp_context=None,
    telemetry=None,
) -> tuple[list[PointResult], SweepStats]:
    """Execute a sweep's points; returns (results, stats).

    ``engine`` picks the tier (:data:`ENGINE_TIERS`).  ``measure`` co-runs
    every point.  ``surrogate`` predicts every point from one
    reuse-distance profile (:func:`repro.surrogate.run_surrogate_sweep`;
    ``surrogate`` takes a :class:`~repro.surrogate.SurrogatePolicy`).
    ``auto`` predicts first, then measures the points the model flags as
    grey.  Predicted points count as ``stats.measured`` and are cached
    under surrogate keys, which carry no retry policy (no prediction
    retries) and never collide with measured keys.  The analytic tiers
    refuse supervision and journaling, and ``surrogate`` refuses a retry
    policy: each would be silently ignored.

    ``workers=0`` (or 1) runs the points in-process, in order; ``workers>=2``
    fans them out over a process pool, one point per task, harvesting
    completions out of order.  Either way each point's result is identical —
    same spec, same derived seed, same pure task function.  Results are
    returned in completion order; use
    :func:`repro.analysis.merge.assemble_curve` (or sort by ``index``) to
    order them.

    With ``cache_dir`` set, points whose key is already on disk are loaded
    instead of measured, and newly measured points are persisted — a
    re-run after a crash resumes where it stopped.  ``journal_dir`` adds a
    write-ahead :class:`~repro.core.journal.RunJournal` under ``run_id``
    (``stats.run_id``); ``resume=True`` replays its finished and
    quarantined points and executes exactly the remainder.

    Faults.  A pool break cannot say which in-flight point killed the
    worker, so the pool is respawned and every in-flight point re-runs
    solo, where a repeat crash is unambiguous.  Without a ``policy`` a
    point's first proven fault — its own exception (type kept) or a crash
    while it ran alone — raises.  A :class:`SupervisorPolicy` instead
    retries it, quarantines it as an explicit :func:`quarantined_result`
    after ``max_point_failures``, and (with ``point_timeout_s``) kills
    attempts that outlive their wall-clock budget.  In-process execution
    applies only the chaos ``error`` fault: killing or hanging the caller's
    own process is what the worker boundary exists to prevent.

    A live :class:`~repro.observability.Telemetry` passed as ``telemetry``
    wraps the sweep in a span, accounts cache hits/misses, and absorbs each
    measured point's worker-side fragment *in point order* (so the merged
    stream is independent of completion order).  Pool bookkeeping lands
    under ``exec_``-prefixed names: one ``exec_pool`` span, an
    ``exec_pool_spawns_total`` counter, per-worker
    ``exec_worker_utilization`` gauges and the supervisor's
    ``exec_supervisor_*`` counters.
    """
    engine = check_sweep_engine(
        engine,
        retry=spec.retry,
        supervised=policy is not None or journal_dir is not None or resume,
    )
    if workers < 0:
        raise MeasurementError(f"workers must be >= 0, got {workers}")
    if resume and journal_dir is None:
        raise ConfigError("resume needs a journal directory (journal_dir)")
    if resume and run_id is None:
        raise ConfigError("resume needs the run id of the journal to continue")
    tel = ensure_telemetry(telemetry)
    if tel.enabled and not spec.telemetry:
        spec = replace(spec, telemetry=True)
    points = sweep_points(spec, sizes_mb)
    cache = SweepCache(cache_dir, telemetry=tel) if cache_dir is not None else None
    sweep = _Sweep(spec, policy, SweepStats(workers=workers), tel, cache)
    if journal_dir is not None:
        sweep.stats.run_id = sweep.open_journal(
            points, sizes_mb, journal_dir, run_id, resume, workers
        )

    try:
        with tel.span(
            "sweep",
            benchmark=spec.benchmark,
            n_points=len(points),
            supervised=policy is not None,
        ):
            todo = [p for p in points if p.index not in sweep.settled]
            if engine != "measure":
                todo = sweep.predict(todo, surrogate, escalate=engine == "auto")
            # one spec token per sweep; each point's key only adds the point
            token = spec_token(spec) if cache is not None and todo else None
            pending = sweep.lookup(todo, token)

            # a watchdog needs a process to kill, even for a single point
            watchdog = policy is not None and policy.point_timeout_s is not None
            if workers >= 2 and (len(pending) >= 2 or (pending and watchdog)):
                _run_pool(sweep, pending, workers, mp_context)
            else:
                _run_serial(sweep, pending)

            # absorb worker streams in point-index order: the parent's merged
            # stream (and hence the aggregated summary) no longer depends on
            # which worker finished first
            for index in sorted(sweep.fragments):
                tel.absorb(sweep.fragments[index])
            if cache is not None:
                sweep.stats.cache_corrupt = cache.corruption_count
    finally:
        if sweep.journal is not None:
            sweep.journal.close()
    return sweep.results, sweep.stats


def _run_serial(sweep: _Sweep, pending: list[SweepPoint]) -> None:
    """In-process execution (errors are survivable, kills are not)."""
    plan = chaos_from_env()
    for point in pending:
        while True:
            attempt = sweep.attempts.get(point.index, 0) + 1
            sweep.attempts[point.index] = attempt
            if attempt > 1:
                sweep.stats.retries += 1
            if sweep.journal is not None:
                sweep.journal.mark_running(point.index, attempt)
            try:
                apply_chaos(plan, point.index, attempt, fatal_ok=False)
                result = measure_sweep_point(sweep.spec, point)
            except Exception as e:
                if sweep.fail(point, f"error: {e.__class__.__name__}: {e}", e):
                    break
                continue
            sweep.record(result)
            break


def _run_pool(
    sweep: _Sweep, pending: list[SweepPoint], workers: int, mp_context
) -> None:
    """Pooled execution: one point per task, watchdog, respawn, solo suspects."""
    spec, policy, stats, tel = sweep.spec, sweep.policy, sweep.stats, sweep.tel
    _check_picklable(spec)
    ctx = mp_context if mp_context is not None else default_mp_context()
    n_workers = min(workers, len(pending))
    timeout_s = policy.point_timeout_s if policy is not None else None
    heartbeat_s = HEARTBEAT_INTERVAL_S if policy is not None else None

    queue: deque[SweepPoint] = deque(pending)
    #: points whose worker died with others inflight — guilt ambiguous, so
    #: they re-run solo, where a repeat crash is unambiguous
    suspects: deque[SweepPoint] = deque()
    inflight: dict[Future, tuple[SweepPoint, float]] = {}

    tel.count("exec_pool_spawns_total")
    pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)

    def submit(point: SweepPoint) -> bool:
        """Journal, then dispatch; False when the pool is already broken."""
        attempt = sweep.attempts.get(point.index, 0) + 1
        if sweep.journal is not None:
            sweep.journal.mark_running(point.index, attempt)
        try:
            fut = pool.submit(_point_task, spec, point, attempt)
        except BrokenProcessPool:
            # never started, so no chaos fault fired: the attempt does not
            # count and the schedule stays deterministic
            return False
        sweep.attempts[point.index] = attempt
        if attempt > 1:
            stats.retries += 1
            tel.count("exec_supervisor_retries_total")
        inflight[fut] = (point, time.perf_counter())
        return True

    def respawn() -> None:
        nonlocal pool
        stats.respawns += 1
        tel.count("exec_supervisor_respawns_total")
        tel.event("supervisor_pool_respawn", respawns=stats.respawns)
        pool.shutdown(wait=False, cancel_futures=True)
        tel.count("exec_pool_spawns_total")
        pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)

    t0 = time.perf_counter()
    try:
        with tel.span("exec_pool", workers=n_workers):
            while queue or suspects or inflight:
                # -- top up -------------------------------------------------
                submit_ok = True
                if suspects:
                    if not inflight:  # drain mode: one suspect at a time
                        submit_ok = submit(suspects[0])
                        if submit_ok:
                            suspects.popleft()
                else:
                    while queue and len(inflight) < n_workers:
                        if not submit(queue[0]):
                            submit_ok = False
                            break
                        queue.popleft()
                if not inflight:
                    if not submit_ok:
                        respawn()
                    continue

                # -- wait one heartbeat ------------------------------------
                done, _ = wait(
                    set(inflight), timeout=heartbeat_s, return_when=FIRST_COMPLETED
                )
                if policy is not None:
                    tel.count("exec_supervisor_heartbeats_total")

                # -- harvest -----------------------------------------------
                broken_points: list[SweepPoint] = []
                for fut in done:
                    point, _t0 = inflight.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        broken_points.append(point)
                    except Exception as e:
                        # the worker survived to raise: unambiguous fault
                        reason = f"worker error: {e.__class__.__name__}: {e}"
                        if not sweep.fail(point, reason, e):
                            queue.append(point)
                    else:
                        sweep.record(result)

                if broken_points:
                    victims = broken_points + [p for p, _ in inflight.values()]
                    inflight.clear()
                    respawn()
                    if len(victims) == 1:
                        # a lone inflight point that killed its worker is
                        # unambiguously guilty (this is how solo re-runs of
                        # suspects convict or acquit)
                        victim = victims[0]
                        crash = MeasurementError(
                            f"sweep point {victim.index} ({victim.size_mb:g}MB) "
                            "crashed its worker process"
                        )
                        if not sweep.fail(victim, "worker crash", crash):
                            suspects.append(victim)
                    else:
                        tel.event(
                            "supervisor_pool_broken",
                            suspects=sorted(p.index for p in victims),
                        )
                        suspects.extend(sorted(victims, key=lambda p: p.index))
                    continue

                # -- watchdog ----------------------------------------------
                if timeout_s is None or not inflight:
                    continue
                now = time.perf_counter()
                expired = [
                    fut for fut, (_p, started) in inflight.items()
                    if now - started >= timeout_s
                ]
                if not expired:
                    continue
                guilty = [inflight[fut][0] for fut in expired]
                innocents = [p for fut, (p, _t0) in inflight.items() if fut not in expired]
                inflight.clear()
                stats.timeouts += len(guilty)
                for point in guilty:
                    tel.count("exec_supervisor_timeouts_total")
                    tel.event(
                        "supervisor_point_timeout", index=point.index, timeout_s=timeout_s
                    )
                _kill_pool_processes(pool)
                respawn()
                for point in guilty:
                    reason = f"timeout after {timeout_s:g}s"
                    if not sweep.fail(point, reason, MeasurementError(reason)):
                        suspects.append(point)  # solo, so a repeat is attributable
                queue.extend(innocents)  # victims of the kill, requeued free
    except BaseException:
        # Ctrl-C (or any abort) must neither be eaten nor hang in shutdown
        for fut in inflight:
            fut.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    pool_wall = time.perf_counter() - t0
    if tel.enabled and pool_wall > 0.0:
        busy = _worker_busy_seconds(sweep.fragments)
        tel.gauge(
            "exec_worker_utilization",
            min(sum(busy.values()) / (n_workers * pool_wall), 1.0),
        )
        for pid, seconds in sorted(busy.items()):
            tel.gauge("exec_worker_utilization", min(seconds / pool_wall, 1.0), pid=pid)


#: The ``fn`` of the :func:`parallel_map` call this pool worker serves.
_WORKER_FN: Callable | None = None


def _set_worker_fn(fn: Callable) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _call_worker_fn(item):
    return _WORKER_FN(item)


def parallel_map(fn: Callable, items: Sequence, *, workers: int = 0, mp_context=None) -> list:
    """Order-preserving map over independent items, optionally in processes.

    The coarse-grained sibling of :func:`run_sweep` for work that is one
    indivisible task per item (e.g. one dynamic-pirating execution per
    benchmark in Fig. 8).  ``fn`` and every item must pickle when
    ``workers >= 2``; results come back in input order regardless of
    completion order, so worker count never changes the output.  ``fn``
    reaches each pool worker once, not with every item (a forked worker
    inherits it, a spawned one unpickles it once), so a partial over a
    large input such as an attach point costs one copy per worker.
    """
    if workers < 0:
        raise MeasurementError(f"workers must be >= 0, got {workers}")
    items = list(items)
    if workers < 2 or len(items) < 2:
        return [fn(item) for item in items]
    ctx = mp_context if mp_context is not None else default_mp_context()
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)),
        mp_context=ctx,
        initializer=_set_worker_fn,
        initargs=(fn,),
    ) as pool:
        futures = [pool.submit(_call_worker_fn, item) for item in items]
        return [f.result() for f in futures]
