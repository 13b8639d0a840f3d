"""The surrogate engine: analytic sweep points, content-keyed and cached.

Drop-in sibling of :func:`repro.core.parallel.run_sweep`: the same
``SweepSpec``/``SweepPoint`` task shapes in, the same ``PointResult`` list
and ``SweepStats`` out — but each point is *predicted* from a one-pass
reuse-distance profile instead of co-run on the simulated machine, so a
whole curve costs O(trace) instead of O(trace × sizes).

Every surrogate point carries a :class:`~repro.core.resilience.PointQuality`
whose ``reasons`` start with ``"surrogate"`` and record the model's error
estimate; ``valid`` is the model's own confidence verdict.  Points are
cached in the same :class:`~repro.core.parallel.SweepCache` as measured
ones, under keys that additionally hash the engine name and the
:class:`SurrogatePolicy` — a surrogate entry can never shadow a measured
entry (or vice versa), and changing any policy knob invalidates exactly
the surrogate entries.

:func:`run_auto_sweep` is the routing tier: it answers every size
analytically first, then escalates the *grey* points — those the model
itself flags as low-confidence — to the bit-exact measured engine.
Escalated points reuse :func:`~repro.core.parallel.derive_point_seed`'s
content-keyed seeds, so they are bit-identical to a full measured sweep of
the same sizes (under test in ``tests/test_surrogate_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

from ..core.curves import IntervalSample
from ..core.parallel import (
    PointResult,
    SweepCache,
    SweepPoint,
    SweepSpec,
    SweepStats,
    point_cache_key,
    run_sweep,
    spec_token,
    sweep_points,
)
from ..core.resilience import PointQuality
from ..errors import MeasurementError
from ..hardware.counters import CounterSample
from ..observability import ensure_telemetry
from ..rng import stable_seed
from ..tracing import capture_trace
from ..units import LINE_SIZE
from .model import DEFAULT_SURROGATE_BOUND, SurrogateModel
from .profile import profile_trace


@dataclass(frozen=True)
class SurrogatePolicy:
    """Knobs of the analytic engine; every field is part of the cache key."""

    #: profile window length: this many sweeps over the workload footprint
    #: (bounded below/above), mirroring the validation tiers' window policy
    footprint_sweeps: int = 8
    min_window_lines: int = 20_000
    max_window_lines: int = 400_000
    #: instructions executed before the profiled window (start-up skip)
    start_instructions: float = 200_000.0
    #: leading fraction of the captured window excluded from the histogram
    skip_fraction: float = 0.25
    #: StatStack-style sampling rate of warm accesses (1.0 = exact pass)
    sample_rate: float = 1.0
    #: error-estimate threshold separating confident from grey points
    bound: float = DEFAULT_SURROGATE_BOUND

    def __post_init__(self) -> None:
        if self.footprint_sweeps < 1:
            raise MeasurementError("footprint_sweeps must be >= 1")
        if not 0 < self.min_window_lines <= self.max_window_lines:
            raise MeasurementError("window bounds must satisfy 0 < min <= max")
        if self.start_instructions < 0:
            raise MeasurementError("start_instructions must be non-negative")
        if not 0.0 <= self.skip_fraction < 1.0:
            raise MeasurementError("skip_fraction must be in [0, 1)")
        if not 0.0 < self.sample_rate <= 1.0:
            raise MeasurementError("sample_rate must be in (0, 1]")
        if not 0.0 < self.bound < 1.0:
            raise MeasurementError("surrogate bound must be in (0, 1)")

    def token(self) -> dict:
        """Canonical content description (the cache-key contribution)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def surrogate_point_key(
    spec: SweepSpec, point: SweepPoint, policy: SurrogatePolicy
) -> str:
    """Cache key of one surrogate point.

    Extends the measured engine's token with the engine name and the full
    policy, so surrogate and measured entries for the same point are
    distinct keys in the same cache directory.
    """
    return point_cache_key(spec, point, _surrogate_token(spec, policy))


def _surrogate_token(spec: SweepSpec, policy: SurrogatePolicy) -> dict:
    token = spec_token(spec)
    token["engine"] = {"name": "surrogate", "policy": policy.token()}
    return token


def build_surrogate_model(
    spec: SweepSpec, policy: SurrogatePolicy | None = None, *, telemetry=None
) -> SurrogateModel:
    """Capture and profile the spec's workload once; return the model.

    The window is sized from the workload's footprint (``footprint_sweeps``
    passes, clamped to the policy's line bounds) so small workloads profile
    in milliseconds while unbounded ones stay bounded.
    """
    policy = policy or SurrogatePolicy()
    tel = ensure_telemetry(telemetry)
    wl = spec.target()
    footprint = wl.footprint_lines() or spec.config.l3.num_lines
    window_lines = min(
        max(policy.min_window_lines, policy.footprint_sweeps * footprint),
        policy.max_window_lines,
    )
    window_instructions = window_lines * wl.accesses_per_line / wl.mem_fraction
    start = policy.start_instructions
    with tel.span("surrogate_profile", benchmark=spec.benchmark, lines=window_lines):
        trace = capture_trace(
            spec.target(), start, start + window_instructions, benchmark=spec.benchmark
        )
        profile = profile_trace(
            trace,
            skip_fraction=policy.skip_fraction,
            sample_rate=policy.sample_rate,
            seed=stable_seed(spec.seed, "surrogate-profile"),
        )
    return SurrogateModel(profile, spec.config, bound=policy.bound)


def synthesize_point(
    spec: SweepSpec, point: SweepPoint, model: SurrogateModel, workload
) -> PointResult:
    """One predicted sweep point in the measured engine's result shape.

    The counters describe the profiled window replayed at the point's
    effective capacity: the L3 fetch count comes from the model's
    prediction, the private-level reach from the histogram's tails at the
    L1/L2 capacities, and the cycle count from the same interval timing
    formula the core model uses (solo run: no bandwidth contention).
    """
    cfg = spec.config
    prof = model.profile
    capacity = cfg.l3.size - point.stolen_bytes
    pred = model.predict_bytes(capacity)

    lines_total = prof.total_accesses
    mem = lines_total * prof.accesses_per_line
    instructions = mem / workload.mem_fraction
    fetches = int(round(pred.miss_ratio * mem))
    to_l3 = max(
        int(round(lines_total * model.line_miss_fraction(cfg.l2.num_lines))), fetches
    )
    to_l2 = max(
        int(round(lines_total * model.line_miss_fraction(cfg.l1.num_lines))), to_l3
    )
    l3_hits = to_l3 - fetches
    l2_hits = to_l2 - to_l3
    l1_hits = max(mem - to_l2, 0.0)

    mlp = workload.mlp
    core = cfg.core
    cycles = (
        instructions * workload.cpi_base
        + l2_hits * core.l2_hit_latency / mlp
        + max(
            to_l3 * core.l3_hit_latency / mlp,
            to_l3 * LINE_SIZE / core.l3_port_bytes_per_cycle,
        )
        + max(
            fetches * core.dram_latency / mlp,
            fetches * LINE_SIZE / cfg.dram_bytes_per_cycle,
        )
    )
    counters = CounterSample(
        cycles=float(cycles),
        instructions=float(instructions),
        mem_accesses=float(mem),
        l1_hits=float(l1_hits),
        l2_hits=int(l2_hits),
        l3_hits=int(l3_hits),
        l3_misses=int(fetches),
        l3_fetches=int(fetches),
        prefetch_fills=0,
        dram_writeback_lines=0,
        dram_bytes=float(fetches * LINE_SIZE),
        l3_bytes=float(to_l3 * LINE_SIZE),
    )
    sample = IntervalSample(
        target_cache_bytes=capacity,
        target=counters,
        pirate_fetch_ratio=0.0,  # no Pirate ran: nothing to hold
        valid=pred.confident,
        start_cycle=0.0,
        wall_cycles=float(cycles),
    )
    reasons = ["surrogate", f"error_estimate={pred.error_estimate:.6f}"]
    if not pred.confident:
        reasons.append("surrogate_grey")
    quality = PointQuality(
        requested_mb=point.size_mb,
        measured_mb=point.size_mb,
        attempts=1,
        pirate_fetch_ratio=0.0,
        valid=pred.confident,
        reasons=reasons,
    )
    return PointResult(
        index=point.index,
        size_mb=point.size_mb,
        stolen_bytes=point.stolen_bytes,
        target_cache_bytes=capacity,
        seed=point.seed,
        samples=[sample],
        quality=quality,
    )


def run_surrogate_sweep(
    spec: SweepSpec,
    sizes_mb: Sequence[float],
    *,
    policy: SurrogatePolicy | None = None,
    cache_dir=None,
    telemetry=None,
) -> tuple[list[PointResult], SweepStats]:
    """Predict every point of a sweep analytically; (results, stats).

    Cache lookups run before any profiling, so an all-hit re-run does zero
    trace captures.  The model is built once and shared by all points.
    """
    policy = policy or SurrogatePolicy()
    tel = ensure_telemetry(telemetry)
    points = sweep_points(spec, sizes_mb)
    cache = SweepCache(cache_dir, telemetry=tel) if cache_dir is not None else None
    stats = SweepStats(workers=0)
    results: list[PointResult] = []
    pending: list[SweepPoint] = []
    keys: dict[int, str] = {}
    token = _surrogate_token(spec, policy) if cache is not None else None
    with tel.span("surrogate_sweep", benchmark=spec.benchmark, n_points=len(points)):
        for p in points:
            if cache is not None:
                keys[p.index] = point_cache_key(spec, p, token)
                hit = cache.load(keys[p.index])
                if hit is not None:
                    results.append(hit)
                    stats.cache_hits += 1
                    tel.count("cache_hits_total")
                    tel.event("cache_hit", index=p.index, size_mb=p.size_mb)
                    continue
                tel.count("cache_misses_total")
            pending.append(p)
        if pending:
            model = build_surrogate_model(spec, policy, telemetry=tel)
            workload = spec.target()
            for p in pending:
                result = synthesize_point(spec, p, model, workload)
                results.append(result)
                stats.measured += 1
                if cache is not None:
                    cache.store(keys[p.index], result)
        if cache is not None:
            stats.cache_corrupt = cache.corruption_count
    return results, stats


def run_auto_sweep(
    spec: SweepSpec,
    sizes_mb: Sequence[float],
    *,
    policy: SurrogatePolicy | None = None,
    workers: int = 0,
    cache_dir=None,
    telemetry=None,
) -> tuple[list[PointResult], SweepStats]:
    """Analytic first, bit-exact where the model is unsure.

    Grey points (surrogate quality ``valid=False``) are re-run through
    :func:`~repro.core.parallel.run_sweep` with the *same* content-keyed
    seeds a direct measured sweep would use, then spliced back at their
    original indices — so every escalated point is bit-identical to the
    measured engine's, for any worker count.
    """
    tel = ensure_telemetry(telemetry)
    predicted, stats = run_surrogate_sweep(
        spec, sizes_mb, policy=policy, cache_dir=cache_dir, telemetry=tel
    )
    grey = sorted(
        (r for r in predicted if r.quality is not None and not r.quality.valid),
        key=lambda r: r.index,
    )
    if not grey:
        return predicted, stats
    tel.count("surrogate_escalations_total", len(grey))
    tel.event(
        "surrogate_escalation",
        benchmark=spec.benchmark,
        sizes_mb=[r.size_mb for r in grey],
    )
    measured, mstats = run_sweep(
        spec,
        [r.size_mb for r in grey],
        workers=workers,
        cache_dir=cache_dir,
        telemetry=tel,
    )
    # run_sweep indexed the subset 0..k-1; splice back to sweep positions
    index_map = {i: g.index for i, g in enumerate(grey)}
    escalated = {g.index for g in grey}
    merged = [r for r in predicted if r.index not in escalated]
    merged.extend(replace(r, index=index_map[r.index]) for r in measured)
    stats.measured += mstats.measured
    stats.cache_hits += mstats.cache_hits
    stats.cache_corrupt += mstats.cache_corrupt
    stats.workers = max(stats.workers, mstats.workers)
    return merged, stats
