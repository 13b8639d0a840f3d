"""Differential tests: the C quantum loop against the Python step loop.

When the hierarchy runs the C walk, :meth:`Machine.run` (and so
``run_only``) runs its quanta in C (:class:`repro.kernels.cext.QuantumLoop`):
scheduling, quantum planning, the Pirate's stripe, the timing model, both
bandwidth domains, the counter banks and the goal check.  The contract is
bit-identity with the Python loop (``Machine.step``, which ``run`` uses
when ``_run_c`` declines), state for state and type for type.
Hypothesis draws the L3 policy, prefetching, a zoo Target, 0-3 Pirate
threads with zero-size and wrapping stripes, and a script of ``run``,
``run_only``, suspend/resume, resize and warm-up steps; after every run
the return value, every thread, every counter bank, both domains, the
hierarchy snapshot, its totals and its chunk counts must agree.

Skipped where the C lowering is unavailable (no compiler, ``REPRO_CEXT=0``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig
from repro.core.pirate import Pirate
from repro.errors import SimulationError
from repro.hardware.machine import Goal, Machine
from repro.kernels import cext
from repro.units import KB
from repro.workloads import ZOO_NAMES, zoo_target

pytestmark = pytest.mark.skipif(
    not cext.available(), reason="no C lowering (no compiler, or REPRO_CEXT=0)"
)

LINE = 64


def config(policy: str, prefetch: bool) -> MachineConfig:
    return MachineConfig(
        num_cores=4,
        l1=CacheConfig("L1", 2 * KB, 2, policy="plru"),
        l2=CacheConfig("L2", 8 * KB, 4, policy="lru"),
        l3=CacheConfig("L3", 64 * KB, 8, policy=policy, inclusive=True, shared=True),
        prefetch_enabled=prefetch,
        kernel="auto",
    )


def assert_same(a, b, where: str = "state") -> None:
    """Equal values of identical types, recursively (dict order included)."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype, where
        assert np.array_equal(a, b), where
        return
    assert type(a) is type(b), f"{where}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        assert list(a) == list(b), f"{where}: keys {list(a)} vs {list(b)}"
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, float) and math.isnan(a):
        assert math.isnan(b), where
    else:
        assert a == b, f"{where}: {a!r} vs {b!r}"


def machine_state(m: Machine) -> dict:
    return {
        "threads": [t.snapshot() for t in m.threads],
        "counters": m.counters.sample_all(),
        "l3_domain": m.l3_domain.snapshot(),
        "dram_domain": m.dram_domain.snapshot(),
        "hierarchy": m.hierarchy.snapshot(),
        "totals": m.hierarchy.totals,
        "kernel_chunks": m.hierarchy.kernel_chunks,
    }


def machine(cfg: MachineConfig, c_loop: bool, **kw) -> Machine:
    """A machine whose ``run`` uses the C loop, or the Python one."""
    m = Machine(cfg, **kw)
    assert m.hierarchy._walk is not None, "the C walk must run this machine"
    if not c_loop:
        m._run_c = lambda goal: False  # run() steps in Python
    return m


def build(policy, prefetch, zoo, ws_mb, limit, n_pirates, c_loop):
    m = machine(config(policy, prefetch), c_loop, seed=3)
    target = m.add_thread(zoo_target(zoo, working_set_mb=ws_mb, seed=5)(), 0,
                          instruction_limit=limit)
    pirate = Pirate(m, list(range(1, 1 + n_pirates))) if n_pirates else None
    return m, target, pirate


def play(m: Machine, target, pirate, script) -> list:
    """Run ``script`` on one machine; the return values of its runs."""
    out = []
    threads = m.threads
    for op, arg, amount in script:
        if op == "resize" and pirate is not None:
            pirate.set_working_set(arg)
        elif op == "seek" and pirate is not None:
            for wl in pirate.workloads:
                wl.seek(arg)
        elif op == "warm" and pirate is not None and all(t.runnable for t in pirate.threads):
            pirate.warm()  # (a suspended Pirate thread would never meet the goal)
            out.append(None)
        elif op == "toggle":
            t = threads[arg % len(threads)]
            if t.suspended:
                m.resume(t)
            elif t.runnable:
                m.suspend(t)
        elif op == "run":
            chosen = [t for i, t in enumerate(threads) if arg >> i & 1 and t.runnable]
            if chosen:
                goal = Goal(chosen, [t.instructions + amount * (1 + k) for k, t in enumerate(chosen)])
                out.append(m.run(goal))
            elif not any(t.runnable and t.instruction_limit is None for t in threads):
                out.append(m.run())  # every runnable thread ends at its limit
        elif op == "run_only":
            chosen = [t for i, t in enumerate(threads) if arg >> i & 1 and t.runnable]
            if chosen:
                out.append(m.run_only(chosen, Goal(chosen[0], chosen[0].instructions + amount)))
    return out


steps = st.one_of(
    st.tuples(st.just("resize"), st.sampled_from((0, 5 * LINE, 37 * LINE, 16 * KB, 48 * KB)),
              st.just(0)),
    st.tuples(st.just("seek"), st.integers(0, 700), st.just(0)),
    st.tuples(st.just("warm"), st.just(0), st.just(0)),
    st.tuples(st.just("toggle"), st.integers(0, 3), st.just(0)),
    st.tuples(st.sampled_from(("run", "run_only")), st.integers(1, 15),
              st.floats(500.0, 40_000.0)),
)


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(("lru", "nru", "plru")),
    prefetch=st.booleans(),
    zoo=st.sampled_from(ZOO_NAMES),
    ws_mb=st.sampled_from((0.02, 0.1, 0.3)),
    limit=st.one_of(st.none(), st.floats(2_000.0, 120_000.0), st.integers(2_000, 120_000)),
    n_pirates=st.integers(0, 3),
    script=st.lists(steps, min_size=1, max_size=10),
)
def test_c_loop_matches_python_loop(policy, prefetch, zoo, ws_mb, limit, n_pirates, script):
    machines = [build(policy, prefetch, zoo, ws_mb, limit, n_pirates, c) for c in (True, False)]
    # the script step by step, comparing after each step
    for k in range(len(script)):
        got, want = (play(*mk, script[k:k + 1]) for mk in machines)
        assert_same(got, want, f"step {k} {script[k]} returns")
        assert_same(machine_state(machines[0][0]), machine_state(machines[1][0]),
                    f"after step {k} {script[k]}")


def test_c_loop_runs_pirate_quanta_in_c():
    """Pirate quanta never call the workload's chunk; the Target's do."""
    m, target, pirate = build("nru", True, "zipf", 0.1, None, 2, True)
    pirate.set_working_set(16 * KB)
    calls = {"pirate": 0, "target": 0}
    for wl, key in ((pirate.workloads[0], "pirate"), (target.workload, "target")):
        chunk = wl.chunk

        def counted(n, chunk=chunk, key=key):
            calls[key] += 1
            return chunk(n)

        wl.chunk = counted
    m.run(Goal(target, 50_000.0))
    assert calls["pirate"] == 0 and calls["target"] > 0
    assert m.hierarchy.kernel_chunks["c", "l3only"] > 0


class _Hostile:
    """A Target whose chunks turn bad after a while."""

    def __init__(self, after: int, bad: str):
        self.name, self.mem_fraction, self.cpi_base, self.mlp = "hostile", 0.4, 0.8, 2.0
        self.accesses_per_line, self.bypass_private = 2.0, False
        self.calls, self.after, self.bad = 0, after, bad

    def chunk(self, n):
        self.calls += 1
        lines = np.arange(n, dtype=np.int64) * 7 + 1000 * self.calls
        if self.calls <= self.after:
            return lines, None
        if self.bad == "negative":
            lines[n // 2] = -5
            return lines, None
        if self.bad == "writes":
            return lines, np.zeros(n + 1, dtype=bool)
        raise RuntimeError("stream failed")

    def snapshot(self):
        return self.calls

    def restore(self, calls):
        self.calls = calls


@pytest.mark.parametrize(
    "bad, error",
    [
        ("negative", "non-negative"),
        ("writes", "write flags"),
        ("raise", "stream failed"),
    ],
)
def test_failed_chunk_leaves_the_python_loops_state(bad, error):
    """A chunk that fails mid-run raises what the Python loop raises and
    leaves the machine as the Python loop leaves it."""
    states = []
    for c_loop in (True, False):
        m = machine(config("lru", False), c_loop, seed=1)
        t = m.add_thread(_Hostile(3, bad), 0)
        Pirate(m, [1, 2]).set_working_set(20 * KB)
        with pytest.raises((SimulationError, RuntimeError), match=error):
            m.run(Goal(t, 1e7))
        states.append(machine_state(m))
    assert_same(*states)


def test_unpackable_state_runs_the_python_loop():
    """A counter of another type is left to the Python loop, which keeps it."""
    m, target, _ = build("lru", False, "zipf", 0.1, None, 1, True)
    m.counters.bank(0).l2_hits = 0.0
    m.run(Goal(target, 30_000.0))
    assert type(m.counters.bank(0).l2_hits) is float and m.counters.bank(0).l2_hits > 0


class _Drifting(_Hostile):
    """A Target whose timing parameters change in every chunk."""

    def chunk(self, n):
        self.calls += 1
        self.cpi_base = 0.5 + 0.1 * (self.calls % 7)
        self.mlp = 1.0 + 0.25 * (self.calls % 3)
        self.accesses_per_line = 1.0 + 0.5 * (self.calls % 2)
        return np.arange(n, dtype=np.int64) * 3 + 64 * self.calls, None


def test_timing_parameters_are_read_after_each_chunk():
    """As in the Python loop, a quantum's timing uses the workload's
    parameters as they stand after its chunk."""
    states = []
    for c_loop in (True, False):
        m = machine(config("plru", True), c_loop, seed=2)
        t = m.add_thread(_Drifting(0, ""), 0)
        Pirate(m, [1]).set_working_set(8 * KB)
        m.run(Goal(t, 200_000.0))
        states.append(machine_state(m))
    assert_same(*states)


def test_long_pirate_runs_pause_for_signals(monkeypatch):
    """A Pirate-only run of more quanta than one C call makes (65,536)
    resumes where it paused and matches the Python loop."""
    codes = []
    call = cext.QuantumLoop.call

    def recorded(self, *args):
        codes.append(call(self, *args))
        return codes[-1]

    monkeypatch.setattr(cext.QuantumLoop, "call", recorded)
    states = []
    for c_loop in (True, False):
        m = machine(config("lru", False), c_loop, seed=2, quantum_cycles=4.0)
        pirate = Pirate(m, [1, 2])
        pirate.set_working_set(3 * KB)
        ret = m.run(Goal(pirate.threads, [400_000.0, 400_000.0]))
        states.append((ret, machine_state(m)))
    assert_same(*states)
    assert codes.count(cext.YIELD) >= 1 and codes[-1] == cext.DONE
