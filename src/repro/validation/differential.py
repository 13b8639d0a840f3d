"""Replay one workload through both cache models (§III-B's methodology).

One differential comparison is the full Fig. 6 pipeline for a single
workload:

1. **Gprof step** — profile the workload and place markers on its hot
   region (:func:`repro.tracing.profile_workload`),
2. **Pin step** — capture the address trace of exactly that window
   (:func:`repro.tracing.capture_trace`),
3. **reference side** — replay the trace through genuine ``(A - k)``-way
   caches (:func:`repro.reference.reference_curve`, way reduction at
   constant sets — the Pirate-equivalent geometry) and pin the curve to a
   counter-measured solo baseline (:func:`repro.reference.apply_offset`),
4. **pirated side** — run the Target Pirate-free to the start marker once
   (:class:`repro.core.attach.AttachPoint`), then attach the Pirate there
   once per swept size and measure the Target's counters over the
   identical window; every window restores the machine the prefix left.

Per-size windows are independent co-runs, so they fan out over
:func:`repro.core.parallel.parallel_map`; each pool worker receives the
prefix's snapshot once and restores it rather than re-running the prefix.
Results are bit-identical for any worker count.  A machine with a
``random`` replacement level measures each window with its own prefix
under that window's seed instead
(:func:`repro.core.attach.prefix_depends_on_seed`), in the process that
measures the window.
:mod:`repro.experiments.fig6_reference` delegates here (via
:func:`tier_from_scale`), so the experiment and the conformance oracle can
never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..analysis.errors import CurveError, curve_errors
from ..config import MachineConfig, nehalem_config
from ..core.attach import (
    AttachPoint,
    AttachWindow,
    measure_between_markers,
    prefix_depends_on_seed,
)
from ..core.curves import IntervalSample, PerformanceCurve
from ..core.parallel import parallel_map
from ..experiments.scale import Scale
from ..observability import ensure_telemetry
from ..reference import apply_offset, reference_curve
from ..reference.sweep import ReferenceCurve
from ..rng import stable_seed
from ..tracing import AddressTrace, capture_trace, profile_workload
from ..units import MB
from ..workloads import TargetSpec, benchmark_target
from .tiers import ValidationTier


def tier_from_scale(scale: Scale) -> ValidationTier:
    """The tier matching an experiment scale's fig6 parameters exactly.

    ``fig6_reference`` routes through this, so a fig6 run at any
    :class:`~repro.experiments.scale.Scale` reproduces its pre-refactor
    numbers bit-for-bit.
    """
    budget = scale.dynamic_total_instructions / 4
    return ValidationTier(
        name=scale.name,
        sizes_mb=tuple(scale.sizes_mb),
        trace_lines=scale.trace_lines,
        footprint_sweeps=6,
        window_cap=8,
        warm_start_instructions=min(2_000_000.0, budget),
        profile_instructions=min(budget, 4_000_000.0),
        reference_warmup_fraction=0.5,
    )


@dataclass
class DifferentialResult:
    """Both models' view of one workload over one window."""

    benchmark: str
    #: pirate-measured curve (way competition at runtime)
    pirate: PerformanceCurve
    #: calibrated reference curve (way reduction by configuration)
    reference: ReferenceCurve
    #: the solo full-cache run that calibrated the reference curve
    baseline: AttachWindow
    #: Fig. 7 error metrics over the trusted sizes
    error: CurveError
    #: instruction markers delimiting the compared window
    start_marker: float = 0.0
    stop_marker: float = 0.0


@dataclass(frozen=True)
class _SizeTask:
    """One per-size pirate window; it pickles small.

    ``own_prefix`` is None for a window measured from the benchmark's
    shared :class:`AttachPoint`, or a ``measure_between_markers`` partial
    that runs the window's own prefix (``random`` replacement).
    """

    stolen_bytes: int
    stop_marker: float
    own_prefix: Callable[..., AttachWindow] | None


def _measure_size(point: AttachPoint | None, task: _SizeTask) -> IntervalSample:
    """Pure per-size task (runs in-process or in a pool worker)."""
    measure = task.own_prefix or point.measure
    win = measure(task.stolen_bytes, stop_marker=task.stop_marker)
    return IntervalSample(
        target_cache_bytes=win.target_cache_bytes,
        target=win.target,
        pirate_fetch_ratio=win.pirate_fetch_ratio,
        valid=win.valid,
    )


def traced_window(
    name: str, factory: TargetSpec, tier: ValidationTier, config: MachineConfig, seed: int, tel
) -> tuple[float, float, AddressTrace, ReferenceCurve]:
    """Steps 1-3 uncalibrated: ``(start, stop, trace, reference curve)``.

    The surrogate grader shares this head, so both oracles judge one window.
    """
    # Gprof step: place markers on the hot region
    with tel.span("validate_profile", instructions=tier.profile_instructions):
        profile = profile_workload(
            factory,
            tier.profile_instructions,
            config=config,
            seed=stable_seed(seed, name, "prof"),
        )
    hot = profile.hottest()
    wl = factory()
    footprint = min(wl.footprint_lines(), config.l3.num_lines)
    lines = tier.window_lines(footprint)
    start = hot.start_marker + tier.warm_start_instructions
    stop = start + lines * wl.accesses_per_line / wl.mem_fraction

    # Pin step: capture the trace of exactly that window
    with tel.span("validate_trace", lines=lines):
        trace = capture_trace(factory(), start, stop, benchmark=name)
    with tel.span("validate_reference", sizes=len(tier.sizes_mb)):
        ref = reference_curve(
            trace,
            list(tier.sizes_mb),
            base_config=config,
            warmup_fraction=tier.reference_warmup_fraction,
        )
    return start, stop, trace, ref


def differential_compare(
    name: str,
    tier: ValidationTier,
    *,
    config: MachineConfig | None = None,
    seed: int = 0,
    workers: int = 0,
    telemetry=None,
    factory: TargetSpec | None = None,
) -> DifferentialResult:
    """Run the full §III-B methodology for one benchmark at one tier.

    Prefetchers are disabled on both sides, as in the paper's validation
    runs; the residual cold-start bias is calibrated away by the baseline
    offset.  ``workers >= 2`` fans the per-size pirate runs over a process
    pool — the result is identical for any worker count.

    ``factory`` overrides the suite lookup with an explicit
    :class:`~repro.workloads.TargetSpec` — the scenario-grid conformance
    collector judges arbitrary zoo members through the same oracle this
    way; ``name`` then only labels the result.
    """
    config = config or nehalem_config(prefetch_enabled=False)
    tel = ensure_telemetry(telemetry)
    if factory is None:
        factory = benchmark_target(name, seed=stable_seed(seed, name))

    with tel.span("validate_benchmark", benchmark=name, tier=tier.name):
        start, stop, _, ref = traced_window(name, factory, tier, config, seed, tel)

        # the seed reaches only ``random`` replacement; every other machine
        # measures all windows from one prefix, the baseline's
        shared = None
        if not prefix_depends_on_seed(config):
            with tel.span("validate_prefix", instructions=start):
                shared = AttachPoint(
                    factory, start, config=config, seed=stable_seed(seed, name, "base")
                )

        def own_prefix(*key) -> Callable[..., AttachWindow] | None:
            if shared is not None:
                return None
            return partial(
                measure_between_markers, factory, start_marker=start,
                config=config, seed=stable_seed(seed, name, *key),
            )

        # baseline-offset calibration (stolen = 0 run)
        with tel.span("validate_baseline"):
            baseline = (own_prefix("base") or shared.measure)(0, stop_marker=stop)
        ref = apply_offset(ref, baseline.target.fetch_ratio)

        # pirate windows attached at the same markers, one per size; the
        # shared point reaches each pool worker once (parallel_map's ``fn``)
        tasks = [
            _SizeTask(
                stolen_bytes=config.l3.size - int(size_mb * MB),
                stop_marker=stop,
                own_prefix=own_prefix("pirate", size_mb),
            )
            for size_mb in tier.sizes_mb
        ]
        with tel.span("validate_pirate", sizes=len(tasks), workers=workers):
            samples = parallel_map(partial(_measure_size, shared), tasks, workers=workers)
        pirate = PerformanceCurve.from_samples(name, samples, config.core.clock_hz)
        for s in samples:
            tel.count("validation_points_total")
            if not s.valid:
                tel.count("validation_untrusted_total")
        err = curve_errors(pirate, ref, benchmark=name)
    return DifferentialResult(
        benchmark=name,
        pirate=pirate,
        reference=ref,
        baseline=baseline,
        error=err,
        start_marker=start,
        stop_marker=stop,
    )
