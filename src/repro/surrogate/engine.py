"""The surrogate engine: analytic sweep points in the measured result shape.

:func:`~repro.core.parallel.run_sweep` runs every engine tier; for
``engine="surrogate"`` and ``engine="auto"`` it hands the points its cache
could not answer to :func:`run_surrogate_sweep`, which profiles the
Target's stream *once* and predicts each point from the reuse-distance
histogram (:func:`~repro.analysis.reuse.reuse_profile`) — O(trace)
instead of O(trace × sizes).

Every surrogate point carries a :class:`~repro.core.resilience.PointQuality`
whose ``reasons`` start with ``"surrogate"`` and record the model's error
estimate; ``valid`` is the model's own confidence verdict, and ``auto``
measures the points it leaves invalid (grey).  Predicted points share the
:class:`~repro.core.parallel.SweepCache` with measured ones, under keys
(:func:`surrogate_point_key`) that add the engine name and the
:class:`SurrogatePolicy` — neither engine can serve the other's points,
and changing the bound invalidates exactly the surrogate entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.reuse import reuse_profile
from ..core.curves import IntervalSample
from ..core.parallel import (
    PointResult,
    SweepPoint,
    SweepSpec,
    point_cache_key,
    spec_token,
)
from ..core.resilience import PointQuality
from ..errors import MeasurementError
from ..hardware.counters import CounterSample
from ..observability import ensure_telemetry
from ..tracing import capture_trace
from ..units import LINE_SIZE
from .model import DEFAULT_SURROGATE_BOUND, SurrogateModel

#: profile window length: this many sweeps over the workload footprint,
#: clamped to ``[MIN_WINDOW_LINES, MAX_WINDOW_LINES]``, mirroring the
#: validation tiers' window policy
FOOTPRINT_SWEEPS = 8
MIN_WINDOW_LINES = 20_000
MAX_WINDOW_LINES = 400_000
#: instructions executed before the profiled window (start-up skip)
START_INSTRUCTIONS = 200_000.0
#: leading fraction of the captured window excluded from the histogram
SKIP_FRACTION = 0.25


@dataclass(frozen=True)
class SurrogatePolicy:
    """The analytic engine's one knob; part of every surrogate cache key."""

    #: error-estimate threshold separating confident from grey points
    bound: float = DEFAULT_SURROGATE_BOUND

    def __post_init__(self) -> None:
        if not 0.0 < self.bound < 1.0:
            raise MeasurementError("surrogate bound must be in (0, 1)")

    def token(self) -> dict:
        """Canonical content description (the cache-key contribution).

        The window constants are listed with the bound, and ``sample_rate``
        stays at the exact pass's 1.0, so keys written when each was a
        policy field keep matching.
        """
        return {
            "footprint_sweeps": FOOTPRINT_SWEEPS,
            "min_window_lines": MIN_WINDOW_LINES,
            "max_window_lines": MAX_WINDOW_LINES,
            "start_instructions": START_INSTRUCTIONS,
            "skip_fraction": SKIP_FRACTION,
            "sample_rate": 1.0,
            "bound": self.bound,
        }


def surrogate_token(spec: SweepSpec, policy: SurrogatePolicy | None = None) -> dict:
    """The sweep-wide part of every surrogate key: :func:`spec_token` with
    the engine and policy added and the retry policy dropped, since a
    prediction has nothing to retry."""
    token = spec_token(spec)
    token["retry"] = None
    token["engine"] = {"name": "surrogate", "policy": (policy or SurrogatePolicy()).token()}
    return token


def surrogate_point_key(
    spec: SweepSpec, point: SweepPoint, policy: SurrogatePolicy | None = None
) -> str:
    """Cache key of one surrogate point (disjoint from its measured key)."""
    return point_cache_key(spec, point, surrogate_token(spec, policy))


def build_surrogate_model(
    spec: SweepSpec, policy: SurrogatePolicy | None = None, *, telemetry=None
) -> SurrogateModel:
    """Capture and profile the spec's workload once; return the model.

    The window is sized from the workload's footprint (``FOOTPRINT_SWEEPS``
    passes, clamped to the window line bounds) so small workloads profile
    in milliseconds while unbounded ones stay bounded.
    """
    policy = policy or SurrogatePolicy()
    tel = ensure_telemetry(telemetry)
    wl = spec.target()
    footprint = wl.footprint_lines() or spec.config.l3.num_lines
    window_lines = min(
        max(MIN_WINDOW_LINES, FOOTPRINT_SWEEPS * footprint), MAX_WINDOW_LINES
    )
    window_instructions = window_lines * wl.accesses_per_line / wl.mem_fraction
    start = START_INSTRUCTIONS
    with tel.span("surrogate_profile", benchmark=spec.benchmark, lines=window_lines):
        trace = capture_trace(
            spec.target(), start, start + window_instructions, benchmark=spec.benchmark
        )
        profile = reuse_profile(trace, skip_fraction=SKIP_FRACTION)
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
    points: list[SweepPoint],
    *,
    policy: SurrogatePolicy | None = None,
    telemetry=None,
) -> list[PointResult]:
    """Predict ``points``: build the model once, then synthesize each point.

    :func:`~repro.core.parallel.run_sweep` calls this with the points its
    cache missed; it owns the cache, the stats and ``auto``'s escalation.
    """
    tel = ensure_telemetry(telemetry)
    with tel.span("surrogate_sweep", benchmark=spec.benchmark, n_points=len(points)):
        model = build_surrogate_model(spec, policy, telemetry=tel)
        workload = spec.target()
        return [synthesize_point(spec, p, model, workload) for p in points]
