"""The Pirate workload and its stealing behaviour."""

import numpy as np
import pytest

from repro.config import nehalem_config
from repro.errors import ConfigError
from repro.hardware.machine import Goal, Machine
from repro.core.pirate import Pirate, PirateThreadWorkload
from repro.units import MB
from repro.workloads.base import PIRATE_BASE


def test_single_thread_sweep_is_linear_unit_stride():
    wl = PirateThreadWorkload(0, stride=1)
    wl.set_count(100)
    lines, writes = wl.chunk(150)
    assert writes is None
    assert lines[0] == PIRATE_BASE
    assert np.all(np.diff(lines[:100]) == 1)
    assert lines[100] == PIRATE_BASE  # wrapped


def test_zero_span_spins_on_one_line():
    wl = PirateThreadWorkload(0, stride=1)
    wl.set_count(0)
    lines, _ = wl.chunk(10)
    assert np.all(lines == PIRATE_BASE)


def test_striping_is_disjoint_and_covers_contiguous_range():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1, 2])
    p.set_working_set(1 * MB)
    total = 1 * MB // 64
    a, _ = p.workloads[0].chunk(p.workloads[0].span_lines)
    b, _ = p.workloads[1].chunk(p.workloads[1].span_lines)
    union = set(a.tolist()) | set(b.tolist())
    assert len(union) == total
    assert set(a.tolist()).isdisjoint(b.tolist())
    assert union == set(range(PIRATE_BASE, PIRATE_BASE + total))


def test_growth_appends_lines_only():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1, 2])
    p.set_working_set(1 * MB)
    small = set()
    for wl in p.workloads:
        lines, _ = wl.chunk(wl.span_lines)
        small |= set(lines.tolist())
    p.set_working_set(2 * MB)
    big = set()
    for wl in p.workloads:
        lines, _ = wl.chunk(wl.span_lines)
        big |= set(lines.tolist())
    assert small < big  # old lines keep their addresses


def test_pirate_needs_cores():
    m = Machine(nehalem_config())
    with pytest.raises(ConfigError):
        Pirate(m, cores=[])
    with pytest.raises(ConfigError):
        Pirate(m, cores=[1, 1])
    with pytest.raises(ConfigError):
        p = Pirate(m, cores=[1])
        p.set_working_set(-1)


def test_warm_claims_working_set_into_l3():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    p.set_working_set(2 * MB)
    p.warm()
    resident = sum(
        1
        for line in range(PIRATE_BASE, PIRATE_BASE + 2 * MB // 64, 97)
        if m.hierarchy.l3_resident(line)
    )
    probed = len(range(PIRATE_BASE, PIRATE_BASE + 2 * MB // 64, 97))
    assert resident / probed > 0.98


def test_warm_is_incremental():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    p.set_working_set(2 * MB)
    p.warm()
    instr_after_first = p.threads[0].instructions
    p.set_working_set(2 * MB + MB // 2)
    p.warm()
    delta = p.threads[0].instructions - instr_after_first
    # only the 0.5MB growth (8192 lines) needed touching; allow up to one
    # scheduler quantum of overshoot
    assert MB // 2 // 64 <= delta < MB // 2 // 64 + 2500


def test_warm_noop_when_shrinking():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    p.set_working_set(1 * MB)
    p.warm()
    instr = p.threads[0].instructions
    p.set_working_set(MB // 2)
    p.warm()
    assert p.threads[0].instructions == instr


def test_fetch_ratio_zero_when_uncontested():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    p.set_working_set(4 * MB)
    p.warm_full()
    snap = p.sample()
    m.run_only(p.threads, Goal(p.threads, [t.instructions + 120_000 for t in p.threads]))
    assert p.fetch_ratio(snap) == pytest.approx(0.0, abs=1e-4)


def test_fetch_ratio_rises_when_target_fights_back():
    """A streaming target that floods the L3 must show up in the Pirate's
    fetch ratio — the §II-A monitoring signal."""
    from repro.workloads import make_benchmark

    m = Machine(nehalem_config())
    target = m.add_thread(make_benchmark("libquantum", seed=1), core=0)
    p = Pirate(m, cores=[1])
    p.set_working_set(7 * MB)
    p.warm_full()
    snap = p.sample()
    m.run(Goal(target, target.instructions + 500_000))
    assert p.fetch_ratio(snap) > 0.005


def test_pirate_reduces_target_cache():
    """Stealing 6MB must raise a 2MB-working-set target's fetch ratio."""
    from repro.workloads.micro import random_micro

    def run(stolen_mb):
        m = Machine(nehalem_config())
        t = m.add_thread(random_micro(4.0, seed=2), core=0)
        p = Pirate(m, cores=[1])
        p.set_working_set(int(stolen_mb * MB))
        p.warm_full()
        m.run(Goal(t, t.instructions + 400_000))  # warm target
        before = m.counters.sample(0)
        m.run(Goal(t, t.instructions + 400_000))
        return m.counters.sample(0).delta(before).fetch_ratio

    assert run(6.0) > run(0.0) + 0.02


def test_working_set_properties():
    m = Machine(nehalem_config())
    p = Pirate(m, cores=[1])
    p.set_working_set(3 * MB)
    assert p.working_set_bytes == 3 * MB
    assert p.working_set_lines == 3 * MB // 64
    assert p.num_threads == 1
