"""Differential tests: the C hierarchy walk against the scalar interpreter.

Kernel mode ``auto`` runs every chunk through
:class:`repro.kernels.cext.HierWalk` when the C lowering loads.  The
contract is bit-identity with ``kernel="scalar"``: per-chunk stats, the
final tags, dirty bits and replacement metadata of every cache, the
per-cache counters and ``victim_tag``, the L3 owner map, the prefetch
stream tables and ``l3_resident`` answers.  Hypothesis draws the machine
(per-level geometry and policy, 1-3 cores, ``private_data``,
prefetching) and the chunk stream (full and bypass chunks, random and
sequential lines, random writes, lengths on both sides of 64, a
``flush()`` part-way); two whole fixed-size measurements close the loop.

Skipped where the C lowering is unavailable (no compiler, ``REPRO_CEXT=0``).
"""

from __future__ import annotations

import gc
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches import hierarchy
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.setassoc import NRUCache
from repro.config import CacheConfig, MachineConfig, nehalem_config, tiny_config
from repro.core.harness import measure_fixed_size
from repro.errors import SimulationError
from repro.kernels import cext
from repro.units import KB, MB
from repro.workloads import TargetSpec
from tests.test_kernels import cache_state

pytestmark = pytest.mark.skipif(
    not cext.available(), reason="no C lowering (no compiler, or REPRO_CEXT=0)"
)

LINE = 64


@st.composite
def level(draw, name: str, set_choices: tuple[int, ...], wide_nru: bool = False):
    policy = draw(st.sampled_from(("lru", "nru", "plru")))
    if policy == "lru":
        ways = draw(st.integers(1, 6))
    elif policy == "nru":
        ways = draw(st.sampled_from((1, 2, 52, 63) if wide_nru else (1, 2, 3, 4)))
    else:
        ways = draw(st.sampled_from((1, 2, 4, 8)))
    sets = draw(st.sampled_from(set_choices))
    return CacheConfig(name, sets * ways * LINE, ways, policy=policy)


@st.composite
def machines(draw) -> MachineConfig:
    l3 = replace(
        draw(level("L3", (8, 16, 32), wide_nru=True)), inclusive=True, shared=True
    )
    return MachineConfig(
        num_cores=draw(st.integers(1, 3)),
        l1=draw(level("L1", (1, 2, 4))),
        l2=draw(level("L2", (2, 4, 8))),
        l3=l3,
        prefetch_enabled=draw(st.booleans()),
        private_data=draw(st.booleans()),
        kernel="scalar",
    )


def chunk_stream(cfg: MachineConfig, seed: int, n_chunks: int, span: int):
    """Random full/bypass chunks over ``span`` lines."""
    rng = np.random.default_rng(seed)
    for _ in range(n_chunks):
        core = int(rng.integers(0, cfg.num_cores))
        n = int(rng.choice((1, 7, 40, 63, 64, 65, 200)))
        if rng.random() < 0.5:
            lines = int(rng.integers(0, span)) + np.arange(n, dtype=np.int64)
        else:
            lines = rng.integers(0, span, n).astype(np.int64)
        writes = None if rng.random() < 0.3 else rng.random(n) < 0.4
        yield core, lines, writes, bool(rng.random() < 0.35)


def stream_table(pf) -> tuple[list, dict]:
    """A prefetcher's streams in FIFO order, and its key -> FIFO index map."""
    order = [(st.next_line, st.count, st.frontier) for st in pf._order]
    index = {id(st): i for i, st in enumerate(pf._order)}
    return order, {key: index[id(st)] for key, st in pf._by_next.items()}


def assert_same_state(walk: CacheHierarchy, ref: CacheHierarchy) -> None:
    for name in ("l1", "l2"):
        for core, (a, b) in enumerate(zip(getattr(walk, name), getattr(ref, name))):
            assert cache_state(a) == cache_state(b), f"{name}[{core}] differs"
    assert cache_state(walk.l3) == cache_state(ref.l3), "l3 differs"
    assert walk.owner_map() == ref.owner_map(), "owner maps differ"
    for a, b in zip(walk.prefetchers, ref.prefetchers):
        if b is not None:
            assert stream_table(a) == stream_table(b), "prefetch tables differ"
            assert (a.issued, a.streams_started) == (b.issued, b.streams_started)
    for a, b in zip(walk.totals, ref.totals):
        assert vars(a) == vars(b), "totals differ"


@settings(max_examples=80)
@given(
    cfg=machines(),
    seed=st.integers(0, 2**31 - 1),
    n_chunks=st.integers(1, 24),
    flush_at=st.one_of(st.none(), st.integers(0, 23)),
    footprint=st.sampled_from((0.5, 3.0)),
)
def test_walk_matches_scalar(cfg, seed, n_chunks, flush_at, footprint):
    walk = CacheHierarchy(replace(cfg, kernel="auto"))
    ref = CacheHierarchy(cfg)
    assert walk._walk is not None, walk.kernel_degraded
    # a footprint below the L3 makes cores share lines, which (with
    # private_data on) strands private copies the owner-only
    # back-invalidation misses: their write-backs then find no L3 line
    span = max(1, int(footprint * cfg.l3.num_lines))
    for i, (core, lines, writes, bypass) in enumerate(
        chunk_stream(cfg, seed, n_chunks, span)
    ):
        if i == flush_at:
            walk.flush()
            ref.flush()
        got = walk.access_chunk(
            core, lines, None if writes is None else writes.copy(), bypass
        )
        want = ref.access_chunk(
            core, lines.tolist(), None if writes is None else writes.tolist(), bypass
        )
        assert vars(got) == vars(want), f"chunk {i} stats differ"
    probes = np.random.default_rng(seed).integers(0, span, 64)
    for line in probes.tolist():
        assert walk.l3_resident(line) == ref.l3_resident(line)
    assert_same_state(walk, ref)
    assert walk.kernel_chunks["c", "full"] + walk.kernel_chunks["c", "l3only"] == (
        n_chunks
    )


def test_python_readers_see_walk_state():
    """The walk's read-only views answer like the scalar caches."""
    cfg = replace(nehalem_config(num_cores=2), kernel="scalar")
    walk = CacheHierarchy(replace(cfg, kernel="auto"))
    ref = CacheHierarchy(cfg)
    lines = np.arange(5000, dtype=np.int64) * 3
    for h in (walk, ref):
        h.access_chunk(0, lines, None)
        h.access_chunk(1, lines[::-1].copy(), None, bypass_private=True)
    for a, b in ((walk.l2[0], ref.l2[0]), (walk.l3, ref.l3)):
        s, t = a.split(int(lines[-1]))
        assert a.join(s, t) == int(lines[-1])
        assert a.probe(s, t) == b.probe(s, t) >= 0
        assert a.resident_tags(s) == b.resident_tags(s)
        assert a.resident_lines() == b.resident_lines()
        assert a.occupancy() == b.occupancy()
        assert a.stats == b.stats
        assert a.victim_tag == b.victim_tag
    assert walk.l3.accessed_bits(0) == ref.l3.accessed_bits(0)
    with pytest.raises(SimulationError, match="uses nru replacement, not lru"):
        walk.l3.recency_order(0)
    assert not hasattr(walk.l3, "invalidate")
    assert_same_state(walk, ref)


def test_dead_hierarchy_is_freed_without_a_gc_pass():
    """The walk and its cache views form no reference cycle.

    A view holding its walk strongly would leave a dead hierarchy's arrays
    to a full garbage collection.
    """
    gc.collect()
    gc.disable()
    try:
        h = CacheHierarchy(nehalem_config(kernel="auto"))
        h.access_chunk(0, np.arange(5000, dtype=np.int64) * 3, None)
        l3 = weakref.ref(h.l3)
        del h
        assert l3() is None
    finally:
        gc.enable()


def test_walk_rejects_malformed_chunks():
    """C reads one write flag per line and uses -1 as the empty-way tag."""
    h = CacheHierarchy(tiny_config(kernel="auto"))
    with pytest.raises(SimulationError, match="write flags"):
        h.access_chunk(0, np.arange(5, dtype=np.int64), np.zeros(4, dtype=bool))
    with pytest.raises(SimulationError, match="non-negative"):
        h.access_chunk(0, np.array([-1, 3], dtype=np.int64), None)


def test_rejected_chunk_leaves_the_walk_untouched():
    """The negative-line scan runs in C before the walk changes anything:
    a chunk with one bad line (late, after many good ones) leaves every
    state array byte for byte as it was."""
    h = CacheHierarchy(tiny_config(kernel="auto", prefetch_enabled=True))
    h.access_chunk(0, np.arange(300, dtype=np.int64) * 5, None)
    h.access_chunk(1, np.arange(100, dtype=np.int64), None, bypass_private=True)
    walk = h._walk
    before = [a.tobytes() for a in walk._state_arrays()]
    for bypass in (False, True):
        bad = np.arange(400, dtype=np.int64) * 3
        bad[-1] = -1
        with pytest.raises(SimulationError, match="non-negative"):
            walk.run(0, bad, np.ones(400, dtype=bool), bypass)
    assert [a.tobytes() for a in walk._state_arrays()] == before


def test_walk_degrades_with_a_reason(monkeypatch):
    """Uncovered machines get the scalar caches, a reason and one warning."""
    monkeypatch.setattr(hierarchy, "_warned_reasons", set())
    random_l1 = replace(
        nehalem_config(), l1=CacheConfig("L1", 32 * KB, 8, policy="random")
    )
    wide_l3 = replace(
        nehalem_config(),
        l3=CacheConfig("L3", 64 * 64 * LINE, 64, policy="lru", inclusive=True),
    )
    cases = [
        (random_l1, "l1 uses random replacement"),
        (wide_l3, "l3 has 64 ways (walk limit 63)"),
        (nehalem_config(num_cores=128), "128 cores (walk limit 127)"),
    ]
    for cfg, reason in cases:
        with pytest.warns(RuntimeWarning, match=re.escape(reason)):
            h = CacheHierarchy(replace(cfg, kernel="auto"))
        assert h._walk is None
        assert reason in h.kernel_degraded
        assert type(h.l3) is type(CacheHierarchy(replace(cfg, kernel="scalar")).l3)
    monkeypatch.setattr(cext, "_tried", True)
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_reason", "disabled by REPRO_CEXT=0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hs = [CacheHierarchy(replace(nehalem_config(), kernel="auto")) for _ in range(3)]
    # one warning per distinct reason, not one per machine
    assert len(caught) == 1
    h = hs[0]
    assert h._walk is None
    assert h.kernel_degraded == "no C lowering: disabled by REPRO_CEXT=0"
    assert isinstance(h.l3, NRUCache)
    # the scalar fallback runs every chunk
    h.access_chunk(0, np.arange(200, dtype=np.int64), None)
    assert h.kernel_chunks["scalar", "full"] == 1
    assert sum(h.kernel_chunks.values()) == 1


@pytest.mark.parametrize(
    "target",
    [
        TargetSpec(kind="zipf", working_set_mb=2.0, alpha=0.9, seed=3),
        TargetSpec(kind="benchmark", name="lbm", seed=5),
    ],
    ids=["zipf", "lbm"],
)
def test_fixed_size_run_matches_scalar(target):
    runs = [
        measure_fixed_size(
            target,
            int(1.5 * MB),
            config=nehalem_config(kernel=kernel),
            interval_instructions=40_000.0,
            n_intervals=2,
            warmup_instructions=40_000.0,
            seed=11,
        )
        for kernel in ("auto", "scalar")
    ]
    assert runs[0] == runs[1]
