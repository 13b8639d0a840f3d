"""The attach prefix runs once: a restored start marker equals a fresh one.

:class:`~repro.core.attach.AttachPoint` runs the Target Pirate-free to the
start marker, snapshots the machine and restores that snapshot for every
later window.  These tests compare the restored machine with one a fresh
prefix leaves, state by state, for every policy the C walk models, under
both kernel modes, in-process and after a pickle round trip.
"""

import pickle
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.attach import AttachPoint, measure_between_markers, prefix_depends_on_seed
from repro.units import KB
from repro.workloads import (
    ZOO_NAMES,
    PhasedWorkload,
    PointerChasePattern,
    benchmark_target,
    random_micro,
    sequential_micro,
    zoo_target,
)

START = 40_000
STOP = 70_000


def _short_phases():
    # phases of a few thousand lines, so a resumed stream crosses boundaries
    return PhasedWorkload(
        "phased", [(random_micro(0.1, seed=1), 6_000.0), (sequential_micro(0.2, seed=2), 9_000.0)]
    )


def _chase_on_a_generator():
    return PointerChasePattern(0, 5_000, seed=np.random.default_rng(3))


STREAMS = {
    **{n: benchmark_target(n, seed=1) for n in ("gcc", "lbm", "mcf", "cigar")},
    **{n: zoo_target(n, seed=1) for n in ZOO_NAMES},
    "phased": _short_phases,
    "chase-generator": _chase_on_a_generator,
}


def _draw(stream, sizes=(1, 700, 2_500, 9_000)):
    if isinstance(stream, PointerChasePattern):
        return [stream.lines(n).tolist() for n in sizes]
    return [
        (lines.tolist(), None if w is None else w.tolist())
        for lines, w in (stream.chunk(n) for n in sizes)
    ]


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_resumes_from_a_snapshot(name):
    stream = STREAMS[name]()
    _draw(stream)
    if name == "chase-generator":
        stream.reset()  # redraws the order from the generator
    state = pickle.loads(pickle.dumps(stream.snapshot()))
    ahead = _draw(stream)
    stream.restore(state)
    assert _draw(stream) == ahead
    # a stream built the same way resumes at the same position too
    twin = STREAMS[name]()
    twin.restore(state)
    assert _draw(twin) == ahead


def _config(policy: str, kernel: str):
    # every level on the policy under test, prefetching on so the stream
    # tables are part of the state too
    cfg = tiny_config(
        l3_size=64 * KB, l3_ways=8, policy=policy, prefetch_enabled=True, kernel=kernel
    )
    return replace(cfg, l1=replace(cfg.l1, policy=policy), l2=replace(cfg.l2, policy=policy))


def _meta(cache, s: int):
    reader = {"lru": "recency_order", "nru": "accessed_bits", "plru": "tree_bits"}
    return getattr(cache, reader[cache.config.policy])(s)


def _cache_state(cache) -> list:
    return [(cache.set_state(s), _meta(cache, s)) for s in range(cache.num_sets)] + [
        cache.stats,
        cache.victim_tag,
    ]


def _observe(machine, target, pirate) -> dict:
    """Everything a window can read, then the next few workload chunks."""
    h = machine.hierarchy
    state = {
        "banks": [asdict(s) for s in machine.counters.sample_all()],
        "threads": [
            (t.clock, t.instructions, t.instruction_limit, t.finished, t.suspended,
             t.cpi_estimate, t._line_carry)
            for t in machine.threads
        ],
        "l3": _cache_state(h.l3),
        "private": [_cache_state(c) for c in (*h.l1, *h.l2)],
        "owners": h.owner_map(),
        "prefetch": [pf.snapshot() for pf in h.prefetchers],
        "totals": [asdict(t) for t in h.totals],
        "domains": [
            (d.stretch, d.latency_scale, d.demand_rate, d.total_bytes)
            for d in (machine.l3_domain, machine.dram_domain)
        ],
        "pirate": (pirate.working_set_bytes, list(pirate._claimed),
                   [wl.snapshot() for wl in pirate.workloads]),
    }
    chunks = [target.workload.chunk(n) for n in (1, 17, 300, 4096)]
    state["chunks"] = [(lines.tolist(), None if w is None else w.tolist()) for lines, w in chunks]
    return state


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
@pytest.mark.parametrize("policy", ["lru", "nru", "plru"])
@pytest.mark.parametrize("name", ["gcc", "lbm"])
def test_restored_prefix_equals_a_fresh_one(name, policy, kernel):
    config = _config(policy, kernel)
    factory = benchmark_target(name, seed=4)
    fresh = _observe(*AttachPoint(factory, START, config=config, seed=9)._at_marker())

    point = AttachPoint(factory, START, config=config, seed=9)
    # move everything on: a baseline window, then a pirated one
    point.measure(0, STOP + 10_000)
    point.measure(32 * KB, STOP)
    assert _observe(*point._at_marker()) == fresh

    shipped = pickle.loads(pickle.dumps(point))
    assert _observe(*shipped._at_marker()) == fresh


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
@pytest.mark.parametrize("policy", ["lru", "nru", "plru", "random"])
def test_windows_from_one_prefix_equal_fresh_windows(policy, kernel):
    config = _config(policy, kernel)
    factory = zoo_target("zipf", working_set_mb=0.1, seed=2)
    point = AttachPoint(factory, START, config=config, seed=5)
    # any order, any repeat: each window starts from the same marker
    for stolen in (48 * KB, 0, 16 * KB, 48 * KB):
        fresh = measure_between_markers(factory, stolen, START, STOP, config=config, seed=5)
        assert point.measure(stolen, STOP) == fresh
        assert pickle.loads(pickle.dumps(point)).measure(stolen, STOP) == fresh


def test_snapshot_is_plain_data_without_the_live_machine():
    point = AttachPoint(benchmark_target("mcf", seed=1), START, config=_config("nru", "auto"))
    shipped = pickle.loads(pickle.dumps(point))
    assert shipped._live is None
    _, target, _ = shipped._at_marker()
    assert target.instructions == pytest.approx(START, abs=0.5)


def test_one_window_needs_no_workload_snapshot():
    # measure_between_markers snapshots nothing, so a WorkloadLike without
    # snapshot()/restore() still attaches
    from tests.test_machine import ToyWorkload

    assert not hasattr(ToyWorkload(), "snapshot")
    win = measure_between_markers(ToyWorkload, 0, 1_000, 6_000, config=_config("lru", "auto"))
    assert win.target.instructions == pytest.approx(5_000, rel=0.01)


def test_a_snapshot_restores_only_into_a_machine_with_the_same_threads():
    from repro.errors import SimulationError
    from repro.hardware.machine import Machine

    config = _config("lru", "auto")
    machine, _, _ = AttachPoint(benchmark_target("povray", seed=0), 1_000, config=config)._at_marker()
    with pytest.raises(SimulationError, match="threads"):
        Machine(config).restore(machine.snapshot())


def test_only_random_replacement_makes_the_prefix_seed_dependent():
    assert not any(prefix_depends_on_seed(_config(p, "auto")) for p in ("lru", "nru", "plru"))
    assert prefix_depends_on_seed(tiny_config(policy="random"))


def test_attach_point_rejects_bad_markers():
    from repro.errors import MeasurementError

    factory = benchmark_target("povray", seed=0)
    with pytest.raises(MeasurementError):
        AttachPoint(factory, -1, config=_config("lru", "auto"))
    point = AttachPoint(factory, 1_000, config=_config("lru", "auto"))
    with pytest.raises(MeasurementError):
        point.measure(0, 1_000)
