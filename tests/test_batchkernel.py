"""Equivalence and property tests for the batched multi-size kernel layer.

The contract mirrors ``tests/test_kernels.py`` but adds two axes: the
configuration axis (a :class:`~repro.kernels.batchkernel.BatchedL3Bank`
simulating every pirate size at once must match N independent scalar
machines bit-for-bit) and the lowering axis (the C loop from
:mod:`repro.kernels.cext` must match the pure-Python kernels bit-for-bit).
Also under test: kernel mode ``batch`` end-to-end through the hierarchy,
cache-key neutrality (batch forks no sha256 keys), the width-aware
round-count bail-out, and the ordinary pool chunking of batch sweeps.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.hierarchy import CacheHierarchy
from repro.config import CacheConfig, machine_content_token, tiny_config
from repro.errors import ConfigError, SimulationError
from repro.kernels import BatchedL3Bank, cext
from repro.kernels.l3kernel import _too_many_rounds
from repro.units import KB

POLICIES = ("lru", "nru", "plru")


def cache_state(c) -> dict:
    """Full observable state of one cache (same probe as test_kernels)."""
    st = {
        "tags": [list(t) for t in c._tags],
        "dirty": [int(d) for d in c._dirty],
        "nvalid": [int(v) for v in c._nvalid],
        "victim": None if c.victim_tag is None else int(c.victim_tag),
        "counters": (
            c.acc_count, c.hit_count, c.miss_count, c.evict_count,
            c.wb_count, c.fill_count, c.inval_count,
        ),
    }
    if hasattr(c, "recency_order"):
        st["recency"] = [c.recency_order(s) for s in range(c.num_sets)]
    if hasattr(c, "accessed_bits"):
        st["nru_bits"] = [c.accessed_bits(s) for s in range(c.num_sets)]
    if hasattr(c, "_tree"):
        st["plru_tree"] = [int(x) for x in c._tree]
    return st


def assert_hierarchies_equal(tag: str, ha: CacheHierarchy, hb: CacheHierarchy):
    for level in ("l1", "l2"):
        for i, (a, b) in enumerate(zip(getattr(ha, level), getattr(hb, level))):
            assert cache_state(a) == cache_state(b), f"{tag}: {level}[{i}] differs"
    assert cache_state(ha.l3) == cache_state(hb.l3), f"{tag}: l3 differs"
    assert ha.owner_map() == hb.owner_map(), f"{tag}: owner maps differ"
    for i, (a, b) in enumerate(zip(ha.totals, hb.totals)):
        assert vars(a) == vars(b), f"{tag}: totals[{i}] differ"

_HAS_CEXT = cext.available()

needs_cext = pytest.mark.skipif(
    not _HAS_CEXT, reason="no C compiler (or REPRO_CEXT=0)"
)


def l3_config(ways: int, policy: str, sets: int = 16) -> CacheConfig:
    return CacheConfig(
        f"L3w{ways}", sets * ways * 64, ways, policy=policy,
        inclusive=True, shared=True,
    )


def reference_hierarchies(configs, policy, sample_sets=1):
    """One scalar single-size machine per bank configuration."""
    hs = []
    for cfg in configs:
        mc = tiny_config(
            l3_size=cfg.size, l3_ways=cfg.ways, policy=policy,
            kernel="scalar", sample_sets=sample_sets,
        )
        hs.append(CacheHierarchy(mc))
    return hs


def drive_and_compare(bank, refs, streams, tag):
    """Feed ``streams`` to the bank and the references; compare every chunk."""
    for step, (lines, writes, shared) in enumerate(streams):
        if shared:
            got = bank.access_chunk(lines, writes)
            for c, h in enumerate(refs):
                want = h.access_chunk(
                    0, lines.copy(), None if writes is None else writes.copy(),
                    bypass_private=True,
                )
                assert vars(got[c]) == vars(want), (
                    f"{tag} step {step} cfg {c}: chunk stats diverge"
                )
        else:
            got = bank.access_chunks(lines, writes)
            for c, h in enumerate(refs):
                w = None if writes is None else writes[c]
                want = h.access_chunk(
                    0, lines[c].copy(), None if w is None else w.copy(),
                    bypass_private=True,
                )
                assert vars(got[c]) == vars(want), (
                    f"{tag} step {step} cfg {c}: per-size stats diverge"
                )
    for c, h in enumerate(refs):
        assert cache_state(bank.cache(c)) == cache_state(h.l3), (
            f"{tag} cfg {c}: final L3 state diverges"
        )
        if bank.lowering == "python":
            # the C lowering skips the owner map: with no private caches it
            # has no observable effect (writebacks depend only on L3 dirt)
            assert bank._slices[c]._owner == h.owner_map(), f"{tag} cfg {c}: owner map"
        assert vars(bank.totals[c]) == vars(h.totals[0]), f"{tag} cfg {c}: totals"


def mixed_streams(rng, nsets, n_cfg, steps=12, sampled=False):
    """Random / sequential / single-set-aliasing chunks, shared and per-size."""
    out = []
    for step in range(steps):
        n = int(rng.choice((1, 5, 40, 200)))
        kind = step % 3
        if kind == 0:
            lines = rng.integers(0, 4096, n)
        elif kind == 1:
            start = int(rng.integers(0, 4096))
            lines = np.arange(start, start + n, dtype=np.int64)
        else:  # alias one set hard: adversarial for round decomposition
            lines = rng.integers(0, 64, n) * nsets + int(rng.integers(0, nsets))
        lines = lines.astype(np.int64)
        writes = rng.random(n) < 0.3 if rng.random() < 0.5 else None
        if step % 4 == 3:  # per-size pirate-style streams
            ls = [lines + 7919 * c for c in range(n_cfg)]
            ws = None if writes is None else [writes for _ in range(n_cfg)]
            out.append((ls, ws, False))
        else:
            out.append((lines, writes, True))
    return out


# -- bank equivalence: batched == N scalar machines ---------------------------


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "lowering", ["python", pytest.param("c", marks=needs_cext)]
)
def test_bank_matches_scalar_references(policy, lowering):
    configs = [l3_config(w, policy) for w in (2, 4, 8)]  # heterogeneous ways
    bank = BatchedL3Bank(configs, lowering=lowering)
    refs = reference_hierarchies(configs, policy)
    rng = np.random.default_rng(11)
    streams = mixed_streams(rng, configs[0].num_sets, len(configs), steps=16)
    drive_and_compare(bank, refs, streams, f"{policy}/{lowering}")


@pytest.mark.parametrize("policy", POLICIES)
def test_bank_matches_under_set_sampling(policy):
    configs = [l3_config(w, policy) for w in (4, 8)]
    bank = BatchedL3Bank(configs, sample_sets=4, lowering="python")
    refs = reference_hierarchies(configs, policy, sample_sets=4)
    rng = np.random.default_rng(23)
    streams = mixed_streams(rng, configs[0].num_sets, len(configs), sampled=True)
    drive_and_compare(bank, refs, streams, f"{policy}/sampled")


@needs_cext
@pytest.mark.parametrize("policy", POLICIES)
def test_c_lowering_matches_python_lowering(policy):
    configs = [l3_config(w, policy) for w in (2, 4)]
    rng = np.random.default_rng(31)
    streams = mixed_streams(rng, configs[0].num_sets, len(configs), steps=16)
    banks = {
        low: BatchedL3Bank(configs, lowering=low) for low in ("python", "c")
    }
    for step, (lines, writes, shared) in enumerate(streams):
        drive = "access_chunk" if shared else "access_chunks"
        got = {
            low: [vars(s) for s in getattr(b, drive)(lines, writes)]
            for low, b in banks.items()
        }
        assert got["python"] == got["c"], f"{policy} step {step}"
    for c in range(len(configs)):
        assert cache_state(banks["python"].cache(c)) == cache_state(
            banks["c"].cache(c)
        ), f"{policy} cfg {c}"


@settings(max_examples=25, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_bank_property_random_streams(policy, seed, data):
    """Property form: arbitrary short streams, any policy, both drive modes."""
    configs = [l3_config(w, policy, sets=8) for w in (2, 4)]
    lowering = data.draw(
        st.sampled_from(("python", "c") if _HAS_CEXT else ("python",))
    )
    bank = BatchedL3Bank(configs, lowering=lowering)
    refs = reference_hierarchies(configs, policy)
    rng = np.random.default_rng(seed)
    streams = mixed_streams(rng, 8, len(configs), steps=6)
    drive_and_compare(bank, refs, streams, f"prop/{policy}/{lowering}")


# -- bank validation ----------------------------------------------------------


def test_bank_rejects_mixed_geometry_and_policy():
    a = l3_config(4, "lru")
    with pytest.raises(ConfigError, match="share set count"):
        BatchedL3Bank([a, l3_config(4, "lru", sets=32)])
    with pytest.raises(ConfigError, match="share set count"):
        BatchedL3Bank([a, l3_config(4, "nru")])
    with pytest.raises(ConfigError, match="at least one"):
        BatchedL3Bank([])
    with pytest.raises(ConfigError, match="lowering"):
        BatchedL3Bank([a], lowering="fortran")
    with pytest.raises(ConfigError, match="sample_sets"):
        BatchedL3Bank([a], sample_sets=3)
    with pytest.raises(SimulationError, match="no vector kernel"):
        BatchedL3Bank([replace(a, policy="random")])
    with pytest.raises(ConfigError, match="streams for"):
        BatchedL3Bank([a]).access_chunks([np.arange(4)] * 2)


# -- hierarchy kernel mode ``batch`` ------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_hierarchy_batch_mode_matches_scalar(policy):
    """Full-hierarchy equivalence: ``batch`` == ``scalar`` on mixed streams

    including full-path chunks (private levels + back-invalidation rollback)
    and pirate bypass chunks.
    """
    hs = {
        m: CacheHierarchy(tiny_config(policy=policy, kernel=m))
        for m in ("scalar", "batch")
    }
    rng = np.random.default_rng(5)
    sweep_pos = 0
    for step in range(24):
        n = int(rng.choice((3, 50, 400)))
        if step % 3 == 0:
            lines = rng.integers(0, 3000, n)
        elif step % 3 == 1:
            lines = np.arange(sweep_pos, sweep_pos + n, dtype=np.int64) % 700
        else:
            nsets = hs["scalar"].l3.num_sets
            lines = rng.integers(0, 64, n) * nsets + int(rng.integers(0, nsets))
        lines = lines.astype(np.int64)
        writes = rng.random(n) < 0.25 if rng.random() < 0.5 else None
        per_mode = {}
        for m, h in hs.items():
            stats = h.access_chunk(
                step % 2, lines.copy(), None if writes is None else writes.copy()
            )
            per_mode[m] = vars(stats).copy()
        assert per_mode["scalar"] == per_mode["batch"], f"{policy} step {step}"
        pn = int(rng.choice((20, 900)))
        plines = (
            np.arange(sweep_pos, sweep_pos + pn, dtype=np.int64) % 2_000
        ) + (1 << 22)
        sweep_pos += pn
        for m, h in hs.items():
            stats = h.access_chunk(1, plines.copy(), None, bypass_private=True)
            per_mode[m] = vars(stats).copy()
        assert per_mode["scalar"] == per_mode["batch"], f"{policy} pirate {step}"
    assert_hierarchies_equal(f"{policy} final", hs["scalar"], hs["batch"])


# -- cache-key neutrality -----------------------------------------------------


def test_batch_mode_forks_no_cache_keys():
    """Batched jobs must hit the same sha256 entries as scalar/vector ones."""
    from repro.core.parallel import SweepSpec, point_cache_key, spec_token, sweep_points
    from repro.workloads.target import TargetSpec

    def spec_for(kernel):
        return SweepSpec(
            target=TargetSpec("micro.random", working_set_mb=0.004),
            benchmark="random",
            config=tiny_config(kernel=kernel),
            seed=3,
        )

    sizes = [0.002, 0.004]
    tokens = {k: spec_token(spec_for(k)) for k in ("scalar", "vector", "batch")}
    assert tokens["scalar"] == tokens["vector"] == tokens["batch"]
    keys = {
        k: [point_cache_key(s, p) for p in sweep_points(s, sizes)]
        for k, s in ((k, spec_for(k)) for k in ("scalar", "batch"))
    }
    assert keys["scalar"] == keys["batch"]
    assert "kernel" not in machine_content_token(tiny_config(kernel="batch"))


# -- bail-out heuristic and telemetry -----------------------------------------


def test_too_many_rounds_accounts_for_batch_width():
    # width 1: decomposition cost is per-stream — 65 rounds over 100
    # accesses is too skewed
    assert _too_many_rounds(100, 65, 1)
    # width 8: the same decomposition amortizes over 8 slices
    assert not _too_many_rounds(100, 65, 8)
    # the floor still catches pathological chunks at any width
    assert _too_many_rounds(8, 65, 8)


def test_bank_counts_python_bailouts():
    configs = [l3_config(4, "lru") for _ in range(2)]
    bank = BatchedL3Bank(configs, lowering="python")
    nsets = configs[0].num_sets
    # 100 distinct tags aliasing one set: 100 rounds > max(64, 200//8)
    lines = np.arange(100, dtype=np.int64) * nsets
    bank.access_chunk(lines)
    assert bank.bailouts == len(configs)
    refs = reference_hierarchies(configs, "lru")
    for c, h in enumerate(refs):
        h.access_chunk(0, lines.copy(), None, bypass_private=True)
        assert cache_state(bank.cache(c)) == cache_state(h.l3)


def test_hierarchy_exposes_bailout_counters():
    h = CacheHierarchy(tiny_config(kernel="batch"))
    assert h.kernel_bailouts == {"l3": 0, "full": 0}


def test_harness_emits_bailout_telemetry():
    from repro.core.harness import measure_fixed_size
    from repro.observability import Telemetry
    from repro.workloads.target import TargetSpec

    tel = Telemetry()
    measure_fixed_size(
        TargetSpec("micro.random", working_set_mb=0.004),
        1 * KB,
        config=tiny_config(kernel="scalar"),
        interval_instructions=500.0,
        n_intervals=1,
        telemetry=tel,
    )
    # scalar mode never bails (there is nothing to bail from), so the
    # counter must be absent rather than zero-valued noise
    names = {r.get("name") for r in tel.fragment().records}
    assert "kernel_bailouts_total" not in names


def _measure_tiny(kernel: str, tel) -> None:
    from repro.core.harness import measure_fixed_size
    from repro.workloads.target import TargetSpec

    measure_fixed_size(
        TargetSpec("micro.random", working_set_mb=0.004),
        1 * KB,
        config=tiny_config(kernel=kernel),
        interval_instructions=500.0,
        n_intervals=1,
        telemetry=tel,
    )


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
def test_harness_exports_engine_chunk_counts(kernel):
    from repro.observability import Telemetry

    tel = Telemetry()
    _measure_tiny(kernel, tel)
    counters = tel.metrics.to_dict()["counters"]
    chunks = {k: v for k, v in counters.items() if k.startswith("kernel_chunks_total")}
    if kernel == "scalar":
        allowed = {"scalar"}
    else:  # the C walk, or the numpy path's mix without a compiler
        allowed = {"c"} if _HAS_CEXT else {"vector", "scalar"}
    engines = {k[k.index("engine=") + 7 : k.index(",")] for k in chunks}
    assert chunks and engines <= allowed, chunks
    events = [r for r in tel.fragment().records if r.get("name") == "kernel_degraded"]
    assert len(events) == (kernel == "auto" and not _HAS_CEXT)


def test_harness_reports_degraded_auto(monkeypatch):
    from repro.observability import Telemetry

    monkeypatch.setattr(cext, "_tried", True)
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_reason", "no C compiler on PATH")
    tel = Telemetry()
    _measure_tiny("auto", tel)
    events = [r for r in tel.fragment().records if r.get("name") == "kernel_degraded"]
    assert len(events) == 1
    assert events[0]["attrs"]["reason"] == "no C lowering: no C compiler on PATH"
    counters = tel.metrics.to_dict()["counters"]
    assert not any("engine=c" in k for k in counters)


def test_null_telemetry_skips_kernel_export(monkeypatch):
    from repro.core import harness
    from repro.observability import NULL_TELEMETRY

    def boom(*_args):
        raise AssertionError("exported under NULL_TELEMETRY")

    monkeypatch.setattr(harness, "export_kernel_telemetry", boom)
    _measure_tiny("auto", NULL_TELEMETRY)


# -- sweep execution -------------------------------------------------------------


def test_batch_sweep_spreads_over_workers():
    from repro.core.parallel import SweepSpec, run_sweep
    from repro.workloads.target import TargetSpec

    spec = SweepSpec(
        target=TargetSpec("micro.random", working_set_mb=0.004),
        benchmark="random",
        config=tiny_config(kernel="batch"),
        interval_instructions=500.0,
        n_intervals=1,
        seed=1,
    )
    # batch sweeps get the ordinary chunking: no single-job collapse
    _, stats = run_sweep(spec, [0.002, 0.004, 0.006], workers=2)
    assert stats.chunks > 1
