"""Machine scheduler: interleaving, suspend/resume, counters, termination."""

import numpy as np
import pytest

from repro.config import tiny_config, nehalem_config
from repro.errors import SimulationError
from repro.hardware.machine import Goal, Machine


class ToyWorkload:
    """Minimal WorkloadLike: strides through a private region forever."""

    def __init__(self, name="toy", region_lines=64, base=0, mem_fraction=0.5,
                 cpi_base=1.0, mlp=2.0, accesses_per_line=1.0):
        self.name = name
        self.mem_fraction = mem_fraction
        self.cpi_base = cpi_base
        self.mlp = mlp
        self.accesses_per_line = accesses_per_line
        self.bypass_private = False
        self._pos = 0
        self._region = region_lines
        self._base = base

    def chunk(self, n_lines):
        out = (self._pos + np.arange(n_lines, dtype=np.int64)) % self._region + self._base
        self._pos = (self._pos + n_lines) % self._region
        return out, None


def test_thread_finishes_at_instruction_limit():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    t = m.add_thread(ToyWorkload(), core=0, instruction_limit=10_000)
    m.run()
    assert t.finished
    assert t.instructions == pytest.approx(10_000, rel=0.01)


def test_counters_accumulate_instructions_and_cycles():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    m.add_thread(ToyWorkload(), core=0, instruction_limit=5_000)
    m.run()
    s = m.counters.sample(0)
    assert s.instructions == pytest.approx(5_000, rel=0.01)
    assert s.cycles > 0
    assert s.mem_accesses == pytest.approx(2_500, rel=0.05)


def test_two_threads_stay_loosely_synchronized():
    m = Machine(tiny_config(), quantum_cycles=500.0)
    a = m.add_thread(ToyWorkload("a", base=0), core=0)
    b = m.add_thread(ToyWorkload("b", base=10_000, cpi_base=3.0), core=1)
    m.run(Goal(a, 50_000))
    # both clocks should be near the frontier despite different speeds
    assert abs(a.clock - b.clock) < 4 * m.quantum_cycles


def test_goal_stops_run_promptly():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    t = m.add_thread(ToyWorkload(), core=0)
    m.run(Goal(t, 3_000))
    assert t.instructions >= 3_000
    assert t.instructions < 3_000 + 5_000  # stopped promptly


def _two_speeds():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    a = m.add_thread(ToyWorkload("a", base=0), core=0)
    b = m.add_thread(ToyWorkload("b", base=10_000, cpi_base=3.0), core=1)
    return m, a, b


def test_goal_stops_at_first_quantum_boundary_meeting_every_count():
    m, a, b = _two_speeds()
    m.run(Goal([a, b], [1_500, 2_500]))
    # the same machine stepped by hand, checking the counts between quanta
    ref, ra, rb = _two_speeds()
    one_met = False
    while not (ra.instructions >= 1_500 and rb.instructions >= 2_500):
        one_met |= ra.instructions >= 1_500
        assert ref.step()
    assert one_met  # one thread at its count alone did not stop the run
    assert (a.instructions, b.instructions, a.clock, b.clock) == (
        ra.instructions, rb.instructions, ra.clock, rb.clock
    )


def test_goal_counts_a_finished_thread_as_met():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    t = m.add_thread(ToyWorkload("t", base=0), core=0, instruction_limit=3_000)
    other = m.add_thread(ToyWorkload("other", base=10_000), core=1)  # runs forever
    m.run(Goal(t, 50_000))
    assert t.finished
    assert t.instructions == pytest.approx(3_000)
    assert other.instructions < 3_000 + 5_000


def test_run_only_resumes_the_others_at_now():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    a = m.add_thread(ToyWorkload("a", base=0), core=0)
    b = m.add_thread(ToyWorkload("b", base=10_000), core=1)
    m.run_only(b, Goal(b, 10_000))
    assert a.instructions == 0
    assert b.instructions >= 10_000
    assert not a.suspended  # restored
    assert a.clock == m.now == b.clock  # the halt cost a wall-clock time
    m.run(Goal(a, 2_000))
    assert a.instructions > 0


def test_step_reports_whether_anything_ran():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    t = m.add_thread(ToyWorkload(), core=0, instruction_limit=2_500)
    assert m.step()
    assert 0 < t.instructions < 2_500
    m.run()
    assert t.finished
    clock = t.clock
    assert not m.step()
    assert t.clock == clock


@pytest.mark.parametrize("count", [float("inf"), float("-inf"), float("nan")])
def test_goal_refuses_a_count_it_can_never_reach(count):
    m = Machine(tiny_config())
    t = m.add_thread(ToyWorkload(), core=0)
    with pytest.raises(SimulationError, match="finite"):
        Goal(t, count)
    with pytest.raises(SimulationError, match="finite"):
        Goal([t], [count])


def test_goal_needs_one_count_per_thread():
    m = Machine(tiny_config())
    a = m.add_thread(ToyWorkload("a"), core=0)
    b = m.add_thread(ToyWorkload("b", base=10_000), core=1)
    with pytest.raises(SimulationError, match="one instruction count per thread"):
        Goal([a, b], [1_000])
    with pytest.raises(SimulationError, match="one instruction count per thread"):
        Goal([], [])


def test_suspend_resume_jumps_clock():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    a = m.add_thread(ToyWorkload("a", base=0), core=0)
    b = m.add_thread(ToyWorkload("b", base=10_000), core=1)
    m.suspend(a)
    m.run(Goal(b, 10_000))
    instr_a = a.instructions
    assert instr_a == 0  # suspended thread retired nothing
    m.resume(a)
    assert a.clock == pytest.approx(b.clock)
    m.run(Goal(a, 5_000))
    assert a.instructions > 0


def test_cross_core_cache_contention_visible_in_counters():
    """Two threads over the same tiny L3 should evict each other."""
    cfg = tiny_config(l3_size=4096, l3_ways=4, num_cores=2)
    m = Machine(cfg, quantum_cycles=2000.0)
    m.add_thread(ToyWorkload("a", region_lines=48, base=0), core=0)
    solo = Machine(cfg, quantum_cycles=2000.0)
    solo.add_thread(ToyWorkload("a", region_lines=48, base=0), core=0)
    # contended machine gets a second, conflicting thread
    m.add_thread(ToyWorkload("b", region_lines=48, base=1 << 20), core=1)
    m.run(Goal(m.threads[0], 100_000))
    solo.run(Goal(solo.threads[0], 100_000))
    contended = m.counters.sample(0)
    alone = solo.counters.sample(0)
    assert contended.fetch_ratio > alone.fetch_ratio


def test_invalid_core_rejected():
    m = Machine(tiny_config(num_cores=2))
    with pytest.raises(SimulationError):
        m.add_thread(ToyWorkload(), core=2)


def test_invalid_quantum_rejected():
    with pytest.raises(SimulationError):
        Machine(tiny_config(), quantum_cycles=0.0)


def test_accesses_per_line_scales_counters():
    m = Machine(tiny_config(), quantum_cycles=1000.0)
    wl = ToyWorkload(accesses_per_line=4.0, mem_fraction=0.4)
    m.add_thread(wl, core=0, instruction_limit=10_000)
    m.run()
    s = m.counters.sample(0)
    assert s.mem_accesses == pytest.approx(4_000, rel=0.05)
    # the extra represented accesses are L1 hits
    assert s.l1_hits >= 0.7 * s.mem_accesses


def test_cpi_estimate_tracks_observed():
    m = Machine(nehalem_config(num_cores=1), quantum_cycles=5000.0)
    t = m.add_thread(ToyWorkload(cpi_base=2.0, mem_fraction=0.1), core=0,
                     instruction_limit=50_000)
    m.run()
    s = m.counters.sample(0)
    assert s.cpi >= 2.0  # base CPI plus stalls
    assert t.cpi_estimate == pytest.approx(s.cpi, rel=0.3)
