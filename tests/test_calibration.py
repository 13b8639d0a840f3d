"""Calibration anchors: the paper's §III/§IV operating points.

These tests pin the simulated machine and suite to the quantitative anchors
the reproduction targets (bands, not exact values — see DESIGN.md §5).
They are the regression net for anyone touching the timing model or the
benchmark specs.
"""

import pytest

from repro.config import nehalem_config
from repro.core.pirate import Pirate
from repro.hardware.machine import Goal, Machine
from repro.units import MB
from repro.workloads import make_benchmark


def solo_point(name, size_mb=8.0, instructions=2e6, warmup=4e6, seed=1):
    """Steady-state counters for a benchmark alone at a way-reduced L3."""
    from dataclasses import replace

    cfg = nehalem_config(num_cores=1)
    cfg = replace(cfg, l3=cfg.l3.with_ways(int(size_mb * 2)))
    m = Machine(cfg)
    t = m.add_thread(make_benchmark(name, seed=seed), core=0,
                     instruction_limit=warmup + instructions)
    m.run(Goal(t, warmup))
    before = m.counters.sample(0)
    m.run()
    return m.counters.sample(0).delta(before), cfg


# ------------------------------------------------------------- pirate speed


def test_single_pirate_thread_l3_bandwidth_near_28gbps():
    """§III-C: one saturating core draws about half of the two-core 56 GB/s."""
    cfg = nehalem_config()
    m = Machine(cfg)
    p = Pirate(m, [1])
    p.set_working_set(4 * MB)
    p.warm_full()
    before = m.counters.sample(1)
    m.run(Goal(p.threads, [t.instructions + 100_000 for t in p.threads]))
    d = m.counters.sample(1).delta(before)
    gbps = d.l3_bytes / d.cycles * cfg.core.clock_hz / 1e9
    assert 22.0 <= gbps <= 30.0


def test_two_pirate_threads_near_56gbps():
    cfg = nehalem_config()
    m = Machine(cfg)
    p = Pirate(m, [1, 2])
    p.set_working_set(4 * MB)
    p.warm_full()
    before = p.sample()
    m.run(Goal(p.threads, [t.instructions + 100_000 for t in p.threads]))
    total = 0.0
    for b, core in zip(before, p.cores):
        d = m.counters.sample(core).delta(b)
        total += d.l3_bytes / d.cycles * cfg.core.clock_hz / 1e9
    assert 44.0 <= total <= 60.0  # the paper's 56 GB/s figure
    # and it stays under the 68 GB/s aggregate cap
    assert total < cfg.l3_bandwidth_gbps


# ------------------------------------------------------------- benchmark anchors


def test_mcf_anchor():
    """§IV: mcf CPI ~3.5 and miss ratio ~10% at the full cache."""
    d, _ = solo_point("mcf")
    assert 2.8 <= d.cpi <= 4.5
    assert 0.07 <= d.miss_ratio <= 0.14
    assert d.fetch_ratio == pytest.approx(d.miss_ratio, rel=0.1)  # no prefetch


def test_libquantum_anchor():
    """§IV: libquantum CPI ~0.7 and ~5 GB/s; flat curves."""
    d8, cfg = solo_point("libquantum")
    assert 0.6 <= d8.cpi <= 1.1
    assert 3.5 <= d8.bandwidth_gbps(cfg.core.clock_hz) <= 5.5
    d05, _ = solo_point("libquantum", size_mb=0.5)
    assert d05.cpi / d8.cpi < 1.3  # flat


def test_lbm_anchor():
    """§IV: heavy prefetching (fetch/miss well above 1), BW in the GB/s band."""
    d, cfg = solo_point("lbm")
    assert d.l3_fetches / max(d.l3_misses, 1) > 4.0
    assert 1.5 <= d.bandwidth_gbps(cfg.core.clock_hz) <= 4.5


def test_povray_anchor():
    """Near-zero fetch ratio — the Fig. 7 relative-error outlier."""
    d, _ = solo_point("povray", instructions=1e6, warmup=2e6)
    assert d.fetch_ratio < 0.001
    assert d.cpi < 1.3


def test_bzip2_anchor():
    """§IV: ~0.01 GB/s off-chip bandwidth."""
    d, cfg = solo_point("bzip2", instructions=2e6, warmup=2e6)
    assert d.bandwidth_gbps(cfg.core.clock_hz) < 0.1


def test_calculix_anchor():
    """§IV: miss ratio ~0.009%."""
    d, _ = solo_point("calculix", instructions=2e6, warmup=2e6)
    assert d.miss_ratio < 0.001


def test_gromacs_flat_cpi_with_rising_misses():
    """§IV: ~10x miss rise from 8MB to 0.5MB with nearly constant CPI."""
    d8, _ = solo_point("gromacs", instructions=2e6, warmup=5e6)
    d05, _ = solo_point("gromacs", size_mb=0.5, instructions=2e6, warmup=5e6)
    assert d05.miss_ratio > 2.0 * d8.miss_ratio
    assert d05.cpi / d8.cpi < 1.25


def test_omnetpp_cpi_rise_at_2mb():
    """Fig. 1(b): ~20% CPI rise when cut from 8MB to a 2MB share."""
    d8, _ = solo_point("omnetpp", warmup=6e6)
    d2, _ = solo_point("omnetpp", size_mb=2.0, warmup=6e6)
    rise = d2.cpi / d8.cpi
    assert 1.05 <= rise <= 1.45


def test_sphinx3_latency_sensitive():
    """§IV: CPI rises markedly (~+50%) at the smallest cache."""
    d8, _ = solo_point("sphinx3", warmup=6e6)
    d05, _ = solo_point("sphinx3", size_mb=0.5, warmup=6e6)
    assert d05.cpi / d8.cpi > 1.25
