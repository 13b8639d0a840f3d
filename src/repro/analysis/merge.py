"""Merging out-of-order sweep results into ordered curves.

The parallel sweep executor (:mod:`repro.core.parallel`) harvests point
results in *completion* order, which depends on worker scheduling and is
therefore non-deterministic.  Everything downstream must nonetheless be a
pure function of the sweep's inputs, so this module re-establishes order:
results are sorted by their point index (the position of the size in the
requested sweep) before samples are aggregated, making the assembled curve
independent of completion order, worker count, chunking, and cache hits —
the equivalence property ``tests/test_parallel.py`` pins down.

When points carry :class:`~repro.core.resilience.PointQuality` (a sweep
routed through the retry engine), the merge preserves it exactly the way
the serial resilient harness does: quality is keyed by the *measured*
cache size, and two requested sizes that degraded onto the same measured
size merge their attempt counts and failure reasons.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.curves import IntervalSample, PerformanceCurve
from ..core.parallel import PointResult
from ..core.resilience import PartialCurve, PointQuality
from ..errors import MeasurementError
from ..observability import ensure_telemetry


def ordered_results(results: Iterable[PointResult]) -> list[PointResult]:
    """Completion-ordered results re-ordered by sweep position."""
    out = sorted(results, key=lambda r: r.index)
    for a, b in zip(out, out[1:]):
        if a.index == b.index:
            raise ValueError(f"duplicate sweep point index {a.index}")
    return out


def merge_point_results(
    results: Iterable[PointResult],
) -> tuple[list[IntervalSample], dict[int, PointQuality]]:
    """Flatten results into ordered samples plus a merged quality map.

    The quality map is empty when no point carried quality metadata.
    Collisions — distinct requested sizes whose retries degraded onto one
    measured size — merge exactly like the serial resilient sweep: summed
    attempts, concatenated reasons plus a ``merged_request`` marker, and
    ANDed validity.
    """
    samples: list[IntervalSample] = []
    quality: dict[int, PointQuality] = {}
    for r in ordered_results(results):
        samples.extend(r.samples)
        if r.quality is None:
            continue
        key = r.target_cache_bytes
        if key in quality:
            prior = quality[key]
            prior.attempts += r.quality.attempts
            prior.reasons.extend(r.quality.reasons)
            prior.reasons.append(f"merged_request_{r.quality.requested_mb:.1f}MB")
            prior.valid = prior.valid and r.quality.valid
        else:
            quality[key] = r.quality
    return samples, quality


def assemble_curve(
    benchmark: str,
    results: Sequence[PointResult],
    clock_hz: float,
    *,
    telemetry=None,
) -> PerformanceCurve:
    """Ordered curve from (possibly out-of-order) sweep point results.

    Returns a :class:`~repro.core.resilience.PartialCurve` carrying the
    merged per-point quality whenever any point has quality metadata, and a
    plain :class:`~repro.core.curves.PerformanceCurve` otherwise.
    """
    tel = ensure_telemetry(telemetry)
    with tel.span("merge", benchmark=benchmark, n_results=len(results)):
        samples, quality = merge_point_results(results)
        if not samples and quality and all(q.quarantined for q in quality.values()):
            raise MeasurementError(
                f"{benchmark}: all {len(quality)} points were quarantined; "
                "no curve to assemble"
            )
        if quality:
            curve = PartialCurve.from_samples(benchmark, samples, clock_hz)
            curve.quality = quality
            for r in results:
                if r.attempts > 1:
                    key = r.target_cache_bytes
                    curve.supervisor_retries[key] = (
                        curve.supervisor_retries.get(key, 0) + r.attempts - 1
                    )
            return curve
        return PerformanceCurve.from_samples(benchmark, samples, clock_hz)
