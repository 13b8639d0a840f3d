"""Text renderings of the paper's tables.

These formatters take the experiment outputs and print rows shaped like the
paper's Table I (cache hierarchy), Table II (capacity stolen vs Target
slowdown) and Table III (overhead and CPI error per interval size), so
paper-vs-measured comparison in EXPERIMENTS.md is a diff, not a decoding
exercise.
"""

from __future__ import annotations

from ..config import MachineConfig, nehalem_config
from ..units import fmt_size


def format_table1(config: MachineConfig | None = None) -> str:
    """Table I: the modelled cache hierarchy."""
    config = config or nehalem_config()
    rows = []
    for cache in (config.l1, config.l2, config.l3):
        attrs = [
            fmt_size(cache.size),
            f"{cache.ways}-way set associative",
            "shared" if cache.shared else "private",
            {"nru": "Nehalem replacement policy", "plru": "pseudo-LRU",
             "lru": "LRU", "random": "random"}[cache.policy],
            "write allocate",
            "writeback",
        ]
        if cache.inclusive:
            attrs.append("inclusive")
        rows.append(f"{cache.name} Cache | " + ", ".join(attrs))
    return "\n".join(rows)


def format_quality_report(curve) -> str:
    """One-line-per-issue summary of a curve's measurement quality.

    Accepts any curve; only a :class:`~repro.core.resilience.PartialCurve`
    (or anything else carrying a ``quality`` map of
    :class:`~repro.core.resilience.PointQuality`) yields per-point detail.
    """
    quality = getattr(curve, "quality", None)
    if not quality:
        return "quality: no retry metadata (curve measured without a retry policy)"
    records = list(quality.values())
    retried = [q for q in records if q.attempts > 1 and q.valid and not q.degraded]
    degraded = [q for q in records if q.degraded]
    failed = [q for q in records if not q.valid]
    # supervision without a retry policy records only quarantined points
    unrecorded = sum(1 for p in curve.points if p.cache_bytes not in quality)
    total = len(records) + unrecorded
    clean = total - len(retried) - len(degraded) - len(failed)
    lines = [
        f"quality: {total} points — {clean} clean, {len(retried)} recovered "
        f"by retry, {len(degraded)} degraded, {len(failed)} failed"
    ]
    for q in degraded:
        lines.append(
            f"  degraded: requested {q.requested_mb:.1f}MB measured at "
            f"{q.measured_mb:.1f}MB after {q.attempts} attempts"
        )
    for q in failed:
        why = ", ".join(sorted(set(q.reasons))) or "unknown"
        lines.append(
            f"  failed: {q.requested_mb:.1f}MB not trustworthy after "
            f"{q.attempts} attempts ({why})"
        )
    return "\n".join(lines)


def format_table2(rows: list[dict]) -> str:
    """Table II: MB stolen with 1 vs 2 Pirate threads and Target slowdown.

    Each row dict needs: benchmark, stolen_1t_mb, stolen_2t_mb, slowdown.
    """
    out = [
        f"{'Benchmark':16s} {'1 Thread':>9s} {'2 Threads':>10s} {'(cpi2-cpi1)/cpi1':>17s}",
        f"{'':16s} {'MB Stolen':>9s} {'MB Stolen':>10s} {'':>17s}",
    ]
    for r in rows:
        out.append(
            f"{r['benchmark']:16s} {r['stolen_1t_mb']:9.1f} {r['stolen_2t_mb']:10.1f} "
            f"{r['slowdown'] * 100:16.1f}%"
        )
    return "\n".join(out)


def format_table3(rows: list[dict]) -> str:
    """Table III: overhead and relative CPI error per interval size.

    Each row dict needs: interval_label, avg_overhead, max_overhead,
    avg_error, max_error, avg_error_nogcc, max_error_nogcc.
    """
    out = [
        f"{'Interval':>9s} {'Avg/Max':>12s} {'With gcc':>12s} {'Without gcc':>12s}",
        f"{'':>9s} {'Overhead %':>12s} {'Error %':>12s} {'Error %':>12s}",
    ]
    for r in rows:
        out.append(
            f"{r['interval_label']:>9s} "
            f"{r['avg_overhead'] * 100:5.1f} / {r['max_overhead'] * 100:<4.0f} "
            f"{r['avg_error'] * 100:5.1f} / {r['max_error'] * 100:<4.1f} "
            f"{r['avg_error_nogcc'] * 100:5.1f} / {r['max_error_nogcc'] * 100:<4.1f}"
        )
    return "\n".join(out)
