"""Equivalence and property tests for the kernel modes and array caches.

The contract under test is absolute: both kernel modes (``scalar`` and
``auto``, the C hierarchy walk where it covers the machine) produce
**bit-identical** per-chunk stats, cumulative totals, and cache state —
tags, dirty bits, replacement metadata, victim side channel, owner map —
on any access stream.  The streams here mix random, sequential,
single-set aliasing, tight L1-hit reuse, and Pirate-style bypass sweeps
that trigger inclusive-L3 back-invalidations.  Every hierarchy the
experiments and validation tiers build must be one the walk covers.
"""

from __future__ import annotations

import gc
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.caches.hierarchy import CacheHierarchy
from repro.config import KERNEL_MODES, CacheConfig, nehalem_config, tiny_config
from repro.errors import ConfigError
from repro.experiments.scale import FULL, QUICK
from repro.kernels import cext
from repro.reference.cachesim import single_core_config
from repro.reference.sweep import _way_grid
from repro.units import KB
from repro.validation.tiers import VALIDATE_FULL, VALIDATE_QUICK


# -- state comparison ---------------------------------------------------------


#: the replacement-state reader of each policy the walk models
REPLACEMENT_READERS = {"lru": "recency_order", "nru": "accessed_bits", "plru": "tree_bits"}


def cache_state(c) -> dict:
    """Observable state of one cache, through the readers scalar caches and
    the walk's views share: per-set tags, dirty bits and valid counts, the
    victim side channel, the counters and the replacement state."""
    sets = [c.set_state(s) for s in range(c.num_sets)]
    st = {
        "tags": [tags for tags, _, _ in sets],
        "dirty": [dirty for _, dirty, _ in sets],
        "nvalid": [nvalid for _, _, nvalid in sets],
        "victim": c.victim_tag,
        "counters": c.stats,
    }
    reader = REPLACEMENT_READERS.get(c.config.policy)
    if reader is not None:  # random replacement keeps no state
        st["meta"] = [getattr(c, reader)(s) for s in range(c.num_sets)]
    return st


def assert_hierarchies_equal(tag: str, ha: CacheHierarchy, hb: CacheHierarchy):
    for level in ("l1", "l2"):
        for i, (a, b) in enumerate(zip(getattr(ha, level), getattr(hb, level))):
            assert cache_state(a) == cache_state(b), f"{tag}: {level}[{i}] differs"
    assert cache_state(ha.l3) == cache_state(hb.l3), f"{tag}: l3 differs"
    assert ha.owner_map() == hb.owner_map(), f"{tag}: owner maps differ"
    for i, (a, b) in enumerate(zip(ha.totals, hb.totals)):
        assert vars(a) == vars(b), f"{tag}: totals[{i}] differ"


def run_streams(
    cfg_fn,
    tag: str,
    steps: int = 48,
    footprint: int = 50_000,
    pirate_ws: int = 3_000,
    seed: int = 0,
    chunk_sizes=(1, 7, 64, 300, 800),
):
    """Drive every kernel mode through one mixed stream, comparing
    per-chunk stats every chunk and full cache state periodically."""
    rng = np.random.default_rng(seed)
    hs = {m: CacheHierarchy(cfg_fn(m)) for m in KERNEL_MODES}
    sweep_pos = 0
    for step in range(steps):
        n = int(rng.choice(chunk_sizes))
        kind = step % 4
        if kind == 0:  # random
            lines = rng.integers(0, footprint, n)
        elif kind == 1:  # sequential
            start = int(rng.integers(0, footprint))
            lines = np.arange(start, start + n, dtype=np.int64)
        elif kind == 2:  # single-set aliasing on the L3
            nsets = hs["scalar"].l3.num_sets
            lines = (rng.integers(0, 64, n) * nsets) + int(rng.integers(0, nsets))
        else:  # tight reuse, L1-hit heavy
            lines = rng.integers(0, 64, n)
        lines = lines.astype(np.int64)
        writes = rng.random(n) < 0.3 if rng.random() < 0.6 else None
        per_mode = {}
        for m, h in hs.items():
            st = h.access_chunk(
                0, lines.copy(), None if writes is None else writes.copy()
            )
            per_mode[m] = vars(st).copy()
        assert per_mode["scalar"] == per_mode["auto"], (
            f"{tag} step {step}: chunk stats diverge: {per_mode}"
        )
        # Pirate-style bypass chunk on core 1 (linear sweep)
        pn = int(rng.choice((30, 500, 2500)))
        plines = (
            np.arange(sweep_pos, sweep_pos + pn, dtype=np.int64) % pirate_ws
        ) + (1 << 22)
        sweep_pos += pn
        per_mode = {}
        for m, h in hs.items():
            st = h.access_chunk(1, plines.copy(), None, bypass_private=True)
            per_mode[m] = vars(st).copy()
        assert per_mode["scalar"] == per_mode["auto"], (
            f"{tag} pirate step {step}: chunk stats diverge: {per_mode}"
        )
        if step % 16 == 15:
            assert_hierarchies_equal(f"{tag} step {step}", hs["scalar"], hs["auto"])
    assert_hierarchies_equal(f"{tag} final", hs["scalar"], hs["auto"])


# -- hierarchy-level equivalence ---------------------------------------------


def test_nehalem_equivalence_with_prefetch():
    run_streams(lambda m: nehalem_config(kernel=m), "nehalem+pf")


def test_nehalem_equivalence_no_prefetch():
    run_streams(
        lambda m: nehalem_config(prefetch_enabled=False, kernel=m), "nehalem-nopf"
    )


def test_all_lru_equivalence():
    run_streams(
        lambda m: replace(
            nehalem_config(kernel=m),
            l1=CacheConfig("L1", 32 * KB, 8, policy="lru"),
            l2=CacheConfig("L2", 256 * KB, 8, policy="lru"),
            l3=CacheConfig(
                "L3", 8192 * KB, 16, policy="lru", inclusive=True, shared=True
            ),
        ),
        "all-lru",
        steps=32,
    )


def test_nru_private_equivalence():
    run_streams(
        lambda m: replace(
            nehalem_config(kernel=m),
            l1=CacheConfig("L1", 32 * KB, 8, policy="nru"),
            l2=CacheConfig("L2", 256 * KB, 8, policy="nru"),
        ),
        "nru-private",
        steps=32,
    )


def test_random_l3_falls_back_to_scalar():
    # random replacement is uncovered: auto must build the scalar caches
    # (and say why) and still agree with pure scalar
    run_streams(
        lambda m: replace(
            nehalem_config(kernel=m),
            l3=CacheConfig(
                "L3", 8192 * KB, 16, policy="random", inclusive=True, shared=True
            ),
        ),
        "random-l3",
        steps=24,
    )


def test_tiny_rollback_pressure():
    # a small inclusive L3 forces frequent back-invalidations into lines the
    # target is still reusing from its private caches
    run_streams(
        lambda m: tiny_config(kernel=m, prefetch_enabled=True),
        "tiny-pf",
        footprint=600,
        pirate_ws=100,
        chunk_sizes=(1, 5, 64, 200),
    )
    run_streams(
        lambda m: tiny_config(kernel=m, l3_size=4 * KB, policy="nru"),
        "tiny-nru",
        footprint=200,
        pirate_ws=60,
        chunk_sizes=(64, 200, 500),
    )


def test_unknown_kernel_mode_rejected():
    with pytest.raises(ConfigError):
        replace(nehalem_config(), kernel="simd")


@pytest.mark.parametrize("source", ["config", "env", "cli", "wire"])
@pytest.mark.parametrize("kernel", ["vector", "batch"])
def test_retired_kernel_modes_fail_in_one_line(kernel, source, monkeypatch):
    """A retired mode is one ConfigError naming its replacement, wherever
    it comes from: a config, ``REPRO_KERNEL``, ``--kernel`` or the wire."""
    from repro.cli import main
    from repro.config import machine_from_dict, machine_to_dict
    from repro.service.protocol import JobSpec, ServiceError, job_from_wire, job_to_wire
    from repro.workloads import TargetSpec

    want = f"kernel mode '{kernel}' was retired: use 'auto'"
    if source == "config":
        with pytest.raises(ConfigError, match=want):
            nehalem_config(kernel=kernel)
        data = machine_to_dict(nehalem_config())
        data["kernel"] = kernel
        with pytest.raises(ConfigError, match=want):
            machine_from_dict(data)
    elif source == "env":
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        with pytest.raises(ConfigError, match=f"REPRO_KERNEL: {want}"):
            nehalem_config()
        lines = []
        assert main(["sweep", "mcf", "--sizes", "8"], out=lines.append) == 2
        assert len(lines) == 1 and lines[0].startswith("error: REPRO_KERNEL: "), lines
    elif source == "cli":
        lines = []
        assert main(["sweep", "mcf", "--sizes", "8", "--kernel", kernel], out=lines.append) == 2
        assert len(lines) == 1 and lines[0].startswith("error: --kernel: "), lines
        assert want in lines[0]
    else:
        wire = job_to_wire(JobSpec(workload=TargetSpec("micro.random"), sizes_mb=(1.0,)))
        wire["machine"] = machine_to_dict(nehalem_config())
        wire["machine"]["kernel"] = kernel
        with pytest.raises(ServiceError, match=want):
            job_from_wire(wire)


# -- cache-level properties ---------------------------------------------------


@pytest.mark.skipif(
    not cext.available(),
    reason="no C lowering: the scalar oracle's per-set tag lists are eager by design",
)
def test_building_a_machine_allocates_no_per_set_objects():
    """Set-up is O(arrays): no Python object per cache set.

    The nehalem L3 alone has 8,192 sets, so eager per-set tag lists (or any
    other per-set object) blow far through the bound.
    """
    cfg = nehalem_config(kernel="auto")
    CacheHierarchy(cfg)  # warm module-level state (C lowering, PLRU tables)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        l3 = CacheHierarchy(cfg).l3
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert l3.num_sets == 8192
    assert added < 500, added


def _shipped_machines():
    """Every machine the experiment scales and validation tiers build.

    The Pirate co-runs use the nehalem machine with and without prefetch
    (the validation side turns it off), the profiling pass a one-core
    nehalem, and the reference replays a one-core machine whose L3 keeps
    only the ways of each grid size, under the NRU and the LRU model
    (Fig. 4 contrasts them) — down to the 1-way 0.5 MB point.
    """
    bases = [nehalem_config(), nehalem_config(prefetch_enabled=False)]
    machines = {"nehalem": bases[0], "nehalem-nopf": bases[1]}
    machines["profile"] = nehalem_config(num_cores=1)
    sizes = set()
    for grid in (QUICK, FULL, VALIDATE_QUICK, VALIDATE_FULL):
        sizes.update(grid.sizes_mb)
    for base in bases:
        for ways in _way_grid(base, sorted(sizes)):
            for policy in ("nru", "lru"):
                for prefetch in (False, True):
                    cfg = single_core_config(
                        base, l3_ways=ways, policy=policy, prefetch=prefetch
                    )
                    machines[f"reference-{policy}-{ways}w-pf{int(prefetch)}"] = cfg
    return machines


def test_every_shipped_hierarchy_runs_the_walk():
    """With a compiler, no machine the package builds falls back to scalar."""
    machines = _shipped_machines()
    assert "reference-nru-1w-pf0" in machines
    for name, cfg in machines.items():
        h = CacheHierarchy(replace(cfg, kernel="auto"))
        if cext.available():
            assert h.kernel_degraded is None, (name, h.kernel_degraded)
            assert h._walk is not None, name
        else:
            assert h.kernel_degraded.startswith("no C lowering"), name


# -- goldens under --kernel scalar -------------------------------------------


def test_fixed_curve_golden_unchanged_under_scalar_kernel(monkeypatch):
    """The checked-in golden reproduces bit-for-bit with kernel=scalar.

    The golden was generated under the default engine; the forced-scalar
    run must serialize to the identical JSON tree (CI runs the full
    ``regen_goldens.py --check`` under ``REPRO_CEXT=0``, which runs the
    same scalar loops — this is the in-suite sentinel for the same
    property).
    """
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    from tests.golden_scenarios import fixed_curve_scenario

    golden = json.loads(
        (Path(__file__).parent / "goldens" / "fixed_curve.json").read_text()
    )
    assert fixed_curve_scenario() == golden
