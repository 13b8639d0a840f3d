"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these quantify the library's own engineering decisions:

* way-reduction vs set-reduction reference sweeps (paper footnote 3),
* the settle period before measured intervals (DESIGN.md §6),
* owner-based vs all-core back-invalidation (``MachineConfig.private_data``).
"""

import time

import pytest

from repro.config import nehalem_config
from repro.core import measure_curve_dynamic
from repro.hardware.machine import Machine
from repro.reference import reference_curve
from repro.tracing import AddressTrace
from repro.workloads import make_benchmark
from repro.workloads.micro import random_micro


@pytest.mark.experiment
def test_ablation_way_vs_set_reduction(run_once, scale):
    """Footnote 3: above four ways, way- and set-reduction sweeps agree."""

    def compare():
        wl = random_micro(3.0, seed=11)
        lines, _ = wl.chunk(min(scale.trace_lines, 300_000))
        trace = AddressTrace("rand3", lines)
        sizes = [2.0, 4.0, 8.0]  # ≥4 ways and power-of-two set counts
        ways = reference_curve(trace, sizes, mode="ways", warmup_fraction=0.5)
        sets = reference_curve(trace, sizes, mode="sets", warmup_fraction=0.5)
        return ways, sets

    ways, sets = run_once(compare)
    print()
    print(f"{'MB':>5} {'way-reduced FR':>15} {'set-reduced FR':>15}")
    for w, s in zip(ways.points, sets.points):
        print(f"{w.cache_bytes / 2**20:5.1f} {w.fetch_ratio:15.4f} {s.fetch_ratio:15.4f}")
        assert abs(w.fetch_ratio - s.fetch_ratio) < 0.05


@pytest.mark.experiment
def test_ablation_settle_period(run_once, scale):
    """Without the settle co-run, warm-up churn leaks into the Pirate's
    fetch ratio and invalidates sizes it can actually hold."""

    def both():
        out = {}
        for settle in (0.0, 0.25):
            res = measure_curve_dynamic(
                lambda: make_benchmark("omnetpp", seed=11),
                # deep steals with up-leg steps: the Pirate loses lines while
                # suspended during each Target warm-up gap
                [8.0, 2.0, 1.5],
                total_instructions=8_000_000,
                interval_instructions=scale.interval_instructions,
                settle_fraction=settle,
                compute_baseline=False,
                seed=3,
            )
            out[settle] = res.samples
        return out

    samples = run_once(both)
    print()
    fr = {}
    for settle, group in samples.items():
        frs = [s.pirate_fetch_ratio for s in group]
        fr[settle] = sum(frs) / len(frs)
        print(
            f"settle={settle}: mean per-interval pirate FR {fr[settle] * 100:.2f}% "
            f"(worst {max(frs) * 100:.2f}%)"
        )
    # settling must never make the monitor's verdicts meaningfully worse on
    # average; its benefit varies with schedule/workload (it was decisive
    # for the up-leg validity of omnetpp's 6MB-steal points during
    # calibration).  The mean is compared — the per-interval worst case is
    # a noisy max statistic.
    assert fr[0.25] <= fr[0.0] + 0.005


@pytest.mark.experiment
def test_ablation_owner_based_back_invalidation(run_once, scale):
    """private_data=True (owner-tracked back-invalidation) must be exact for
    disjoint address spaces: identical counters, measurably less host time."""

    def run_mode(private):
        from dataclasses import replace

        cfg = replace(nehalem_config(), private_data=private)
        m = Machine(cfg, seed=5)
        m.add_thread(make_benchmark("mcf", instance=0, seed=7), core=0,
                     instruction_limit=600_000)
        m.add_thread(make_benchmark("sphinx3", instance=1, seed=8), core=1,
                     instruction_limit=600_000)
        t0 = time.perf_counter()
        m.run()
        host = time.perf_counter() - t0
        return m.counters.sample(0), m.counters.sample(1), host

    def both():
        return run_mode(True), run_mode(False)

    (fast_a, fast_b, t_fast), (strict_a, strict_b, t_strict) = run_once(both)
    print()
    print(f"owner-based: {t_fast:.2f}s host, strict all-core: {t_strict:.2f}s host")
    for fast, strict in ((fast_a, strict_a), (fast_b, strict_b)):
        assert fast.l3_fetches == strict.l3_fetches
        assert fast.l3_misses == strict.l3_misses
        assert fast.cycles == pytest.approx(strict.cycles, rel=1e-9)
