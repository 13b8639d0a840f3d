"""Fixed-size Cache Pirating measurement (§III-D's baseline methodology).

One Target execution per cache size: the Pirate is configured to steal a
fixed amount for the whole run, both sides warm up, and the Target's
counters are read over successive measurement intervals, each validated by
the Pirate's fetch ratio.  Sweeping 15 sizes this way costs ~15 Target
executions — the ~1500% overhead that motivates the dynamic adjustment in
:mod:`repro.core.dynamic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.machine import Goal, Machine
from ..hardware.thread import SimThread, WorkloadLike
from ..observability import ensure_telemetry
from ..units import MB
from .curves import IntervalSample, PerformanceCurve
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD, PirateMonitor
from .pirate import Pirate

#: Default measurement interval (Target instructions).  The paper's best
#: tradeoff is 100M instructions on real hardware; simulated experiments are
#: scaled 1:100 (DESIGN.md §6), making 1M the default.
DEFAULT_INTERVAL_INSTRUCTIONS = 1_000_000.0


@dataclass
class FixedSizeResult:
    """Outcome of one fixed-size co-run."""

    target_cache_bytes: int
    stolen_bytes: int
    samples: list[IntervalSample] = field(default_factory=list)
    #: frontier cycles consumed including warm-ups
    wall_cycles: float = 0.0

    @property
    def all_valid(self) -> bool:
        return all(s.valid for s in self.samples)


def _make_target(target_factory: Callable[[], WorkloadLike] | WorkloadLike) -> WorkloadLike:
    if callable(target_factory):
        return target_factory()
    target_factory.reset()
    return target_factory


def _setup(
    target_factory,
    config: MachineConfig,
    num_pirate_threads: int,
    seed: int,
) -> tuple[Machine, SimThread, Pirate]:
    if num_pirate_threads >= config.num_cores:
        raise MeasurementError(
            f"{num_pirate_threads} pirate threads + 1 target need more than "
            f"{config.num_cores} cores"
        )
    machine = Machine(config, seed=seed)
    target = machine.add_thread(_make_target(target_factory), core=0)
    pirate = Pirate(machine, cores=list(range(1, 1 + num_pirate_threads)))
    return machine, target, pirate


def export_kernel_telemetry(tel, hierarchy) -> None:
    """Record which engines ran a hierarchy's chunks.

    ``kernel_chunks_total{engine,path}`` counts chunks per engine (``c``,
    ``scalar``) and path (``full``, ``l3only``).  A ``kernel_degraded``
    event names why kernel mode ``auto`` ran the scalar loops instead of
    the C walk.  The counters are plain ints kept by the hierarchy, so
    this is the only telemetry cost, paid once per run.
    """
    for (engine, path), n in hierarchy.kernel_chunks.items():
        if n:
            tel.count("kernel_chunks_total", float(n), engine=engine, path=path)
    if hierarchy.kernel_degraded is not None:
        tel.event("kernel_degraded", reason=hierarchy.kernel_degraded)


def measure_interval(
    machine: Machine,
    monitor: PirateMonitor,
    goal: Goal,
    cores: list[int],
    target_cache_bytes: int,
    telemetry=None,
    **span_attrs,
) -> list[IntervalSample]:
    """One monitored measurement interval: run to ``goal`` and judge it.

    Reads the counter banks of ``cores`` (the Target's) before and after
    the run, brackets it with the Pirate monitor, and returns one sample
    per core, each carrying the Pirate's fetch-ratio verdict (§II-A).
    ``telemetry`` records an ``interval`` span with ``span_attrs`` plus the
    ``intervals_total``/``invalid_intervals_total`` counters and an
    ``interval_invalid`` event for an untrustworthy interval.
    """
    tel = ensure_telemetry(telemetry)
    with tel.span("interval", **span_attrs) as sp:
        befores = [machine.counters.sample(c) for c in cores]
        t0 = machine.frontier
        monitor.begin()
        machine.run(goal)
        verdict = monitor.end()
        deltas = [machine.counters.sample(c).delta(b) for c, b in zip(cores, befores)]
        wall = machine.frontier - t0
        sp.add_cycles(wall)
    tel.count("intervals_total")
    if not verdict.trustworthy:
        tel.count("invalid_intervals_total")
        tel.event(
            "interval_invalid",
            reason="pirate_hot",
            fetch_ratio=verdict.fetch_ratio,
        )
    return [
        IntervalSample(
            target_cache_bytes=target_cache_bytes,
            target=delta,
            pirate_fetch_ratio=verdict.fetch_ratio,
            valid=verdict.trustworthy,
            start_cycle=t0,
            wall_cycles=wall,
        )
        for delta in deltas
    ]


def measure_fixed_size(
    target_factory: Callable[[], WorkloadLike] | WorkloadLike,
    stolen_bytes: int,
    *,
    config: MachineConfig | None = None,
    num_pirate_threads: int = 1,
    interval_instructions: float = DEFAULT_INTERVAL_INSTRUCTIONS,
    n_intervals: int = 3,
    warmup_instructions: float | None = None,
    settle_instructions: float = 0.0,
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    seed: int = 0,
    telemetry=None,
) -> FixedSizeResult:
    """Co-run Target and Pirate with a fixed stolen size; measure intervals.

    ``target_factory`` is either a zero-arg callable producing a fresh
    workload or a workload instance (which is reset).  Returns per-interval
    Target counter deltas, each validated against the Pirate's fetch ratio.

    ``settle_instructions`` inserts an unmeasured co-run between warm-up and
    the first interval (the retry engine's escalation uses this to let the
    Pirate re-claim lines its co-runner evicted).  ``telemetry`` records
    warm-up/settle/interval spans and interval-validity metrics; it observes
    only — no measured value depends on it.
    """
    config = config or nehalem_config()
    tel = ensure_telemetry(telemetry)
    if not 0 <= stolen_bytes <= config.l3.size:
        raise MeasurementError(f"cannot steal {stolen_bytes} of {config.l3.size} bytes")
    machine, target, pirate = _setup(target_factory, config, num_pirate_threads, seed)
    start = machine.frontier

    pirate.set_working_set(stolen_bytes)
    with tel.span("pirate_warm", stolen_mb=stolen_bytes / MB) as sp:
        t0 = machine.frontier
        pirate.warm()  # Target suspended while the Pirate claims its set
        sp.add_cycles(machine.frontier - t0)

    if warmup_instructions is None:
        warmup_instructions = interval_instructions
    with tel.span("warmup", instructions=warmup_instructions) as sp:
        t0 = machine.frontier
        machine.run(Goal(target, target.instructions + warmup_instructions))
        sp.add_cycles(machine.frontier - t0)

    if settle_instructions > 0.0:
        tel.count("fetch_ratio_settle_ticks", settle_instructions)
        with tel.span("settle", instructions=settle_instructions) as sp:
            t0 = machine.frontier
            machine.run(Goal(target, target.instructions + settle_instructions))
            sp.add_cycles(machine.frontier - t0)

    monitor = PirateMonitor(pirate, threshold)
    samples = []
    for i in range(n_intervals):
        goal = Goal(target, target.instructions + interval_instructions)
        samples += measure_interval(
            machine, monitor, goal, [target.core], config.l3.size - stolen_bytes, tel, index=i
        )
    if tel.enabled:
        export_kernel_telemetry(tel, machine.hierarchy)
    return FixedSizeResult(
        target_cache_bytes=config.l3.size - stolen_bytes,
        stolen_bytes=stolen_bytes,
        samples=samples,
        wall_cycles=machine.frontier - start,
    )


def measure_curve_fixed(
    target_factory: Callable[[], WorkloadLike],
    sizes_mb: list[float],
    *,
    benchmark: str | None = None,
    config: MachineConfig | None = None,
    num_pirate_threads: int = 1,
    interval_instructions: float = DEFAULT_INTERVAL_INSTRUCTIONS,
    n_intervals: int = 2,
    warmup_instructions: float | None = None,
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    seed: int = 0,
    retry=None,
    workers: int = 0,
    cache_dir=None,
    engine: str = "measure",
    surrogate=None,
    telemetry=None,
) -> PerformanceCurve:
    """The expensive baseline: one fixed-size execution per cache size.

    ``sizes_mb`` are *Target-available* sizes; the Pirate steals the
    complement of each.  Used as ground truth for validating the dynamic
    method (Table III) and wherever a single size is all that is needed.

    Every point is an independent task with its own machine and a seed
    derived from ``seed`` and the point's size
    (:func:`~repro.core.parallel.derive_point_seed`).  ``workers >= 2``
    fans the points out over a process pool — the curve is bit-identical
    to a serial run for any worker count; ``cache_dir`` persists completed
    points so repeated sweeps and crash re-runs skip them (see
    :mod:`repro.core.parallel` for the cache-key semantics).

    Passing a :class:`~repro.core.resilience.RetryPolicy` as ``retry`` routes
    every point through the retry engine and returns a
    :class:`~repro.core.resilience.PartialCurve` with per-point quality.

    ``engine`` and ``surrogate`` pass straight to
    :func:`~repro.core.parallel.run_sweep`, which runs every engine tier
    (:data:`~repro.core.parallel.ENGINE_TIERS`); supervision and
    journaling are ``run_sweep``'s own, so ``repro sweep`` calls it directly.

    A :class:`~repro.observability.Telemetry` passed as ``telemetry``
    collects per-point spans and engine metrics (cache hits, retries,
    worker utilization); enabling it changes neither the measured curve nor
    any cache key.
    """
    from ..analysis.merge import assemble_curve
    from .parallel import SweepSpec, run_sweep

    config = config or nehalem_config()
    tel = ensure_telemetry(telemetry)
    if not callable(target_factory):
        raise MeasurementError("measure_curve_fixed needs a factory for fresh targets")
    # resolve the benchmark name once, not once per sweep size
    name = benchmark if benchmark is not None else _make_target(target_factory).name
    spec = SweepSpec(
        target=target_factory,
        benchmark=name or "target",
        config=config,
        num_pirate_threads=num_pirate_threads,
        interval_instructions=interval_instructions,
        n_intervals=n_intervals,
        warmup_instructions=warmup_instructions,
        threshold=threshold,
        seed=seed,
        retry=retry,
        telemetry=tel.enabled,
    )
    results, _ = run_sweep(
        spec,
        list(sizes_mb),
        engine=engine,
        surrogate=surrogate,
        workers=workers,
        cache_dir=cache_dir,
        telemetry=tel,
    )
    return assemble_curve(name or "target", results, config.core.clock_hz, telemetry=tel)
