"""Batched multi-configuration L3 bank: every pirate size in one pass.

A stolen-size sweep replays the same Target address stream against N
shared-L3 configurations that differ only in how much capacity the Pirate
holds.  Simulated one point at a time that costs N passes over the stream;
this module simulates all N configurations side by side in one pass.

Memory layout (the size-stacked SoA): the bank allocates the cache arrays
with the configuration axis stacked in front —

* ``tags``/LRU stamps: ``[n_cfg, sets, max_ways]`` (int64, -1 = invalid),
* dirty masks / valid counts / NRU masks / PLRU trees: ``[n_cfg, sets]``,

and each configuration's :class:`~repro.kernels.veccache.VecSetAssocCache`
is re-pointed at its slice (``stack[c, :, :ways_c]``), so every existing
vector kernel — probe/fill batches, the resident-set and spin shortcuts,
snapshots — runs unchanged on bank storage.  All configurations must share
the L3 set geometry (sets, line size) and policy; way counts may differ
(way-stealing sweeps).

Two drive modes:

* :meth:`BatchedL3Bank.access_chunk` — one stream shared by every
  configuration (the Target side of a sweep).  The set-sorted round
  decomposition (:class:`~repro.kernels.l3kernel.ChunkRounds`) is computed
  **once** and replayed against each size slice; its fixed cost amortizes
  over the batch width, which the bail-out heuristic accounts for.
* :meth:`BatchedL3Bank.access_chunks` — one stream per configuration (the
  per-size Pirate streams).

Lowering: ``auto`` (default) uses the C loop from
:mod:`repro.kernels.cext` when a compiler is available — the in-order C
walk beats even the vectorized rounds by an order of magnitude — and
falls back to the pure-Python/numpy kernels otherwise; ``python`` and
``c`` force a side.  Both lowerings are bit-identical to the scalar
engine (pinned by ``tests/test_batchkernel.py``).

The bank models private-level-bypass streams only (the consumers that are
exactly batchable: every configuration sees the same L3-bound stream).
Full-hierarchy chunks couple the private levels to each configuration's
back-invalidations, so their streams diverge across sizes; those run
per-configuration through :mod:`repro.kernels.pipekernel`, whose
sequential L3 stage picks up the same C lowering under kernel mode
``batch``.

Set sampling (``sample_sets = N``) filters each chunk once for the whole
bank and rescales every configuration's L3 counters by ``N``, mirroring
``CacheHierarchy.access_chunk``.
"""

from __future__ import annotations

import numpy as np

from ..caches.base import CoreMemStats
from ..caches.setassoc import HIT, MISS_CLEAN, MISS_DIRTY
from ..config import CacheConfig
from ..errors import ConfigError, SimulationError
from ..units import is_pow2
from . import cext
from .l3kernel import ChunkRounds, run_l3_chunk
from .veccache import make_vec_cache, stack_vec_caches

LOWERINGS = ("auto", "c", "python")


class _BankSlice:
    """Minimal hierarchy facade so one size slice can drive ``run_l3_chunk``.

    The bank has no private caches: an inclusive-eviction back-invalidation
    only pops the owner entry and reports whether the line goes to DRAM
    (1 iff the L3 copy was dirty) — exactly what
    ``CacheHierarchy._back_invalidate`` computes for a never-filled core.
    """

    __slots__ = ("l3", "_owner", "_sample_mask")

    def __init__(self, cache):
        self.l3 = cache
        self._owner: dict[int, int] = {}
        # the bank filters sampled lines once for all slices
        self._sample_mask = 0

    def _back_invalidate(self, line: int, l3_dirty: bool) -> int:
        self._owner.pop(line, None)
        return 1 if l3_dirty else 0


class BatchedL3Bank:
    """N shared-L3 configurations simulated side by side on stacked arrays."""

    def __init__(
        self,
        configs: list[CacheConfig],
        *,
        lowering: str = "auto",
        sample_sets: int = 1,
    ):
        if not configs:
            raise ConfigError("a batched bank needs at least one configuration")
        if lowering not in LOWERINGS:
            raise ConfigError(
                f"unknown lowering {lowering!r}; choose one of {LOWERINGS}"
            )
        base = configs[0]
        for cfg in configs[1:]:
            if (
                cfg.num_sets != base.num_sets
                or cfg.line_size != base.line_size
                or cfg.policy != base.policy
            ):
                raise ConfigError(
                    "bank configurations must share set count, line size and "
                    f"policy: {cfg.name} differs from {base.name}"
                )
        if sample_sets < 1 or not is_pow2(sample_sets):
            raise ConfigError(
                f"sample_sets must be a positive power of two, got {sample_sets}"
            )
        if sample_sets > base.num_sets:
            raise ConfigError(
                f"sample_sets {sample_sets} exceeds the {base.num_sets} sets"
            )
        self.configs = list(configs)
        self.n_cfg = n = len(configs)
        caches = []
        for cfg in configs:
            cache = make_vec_cache(cfg)
            if cache is None:
                raise SimulationError(
                    f"policy {cfg.policy!r} ({cfg.ways} ways) has no vector "
                    "kernel; the batched bank cannot cover it"
                )
            caches.append(cache)
        self.caches = caches
        # -- size-stacked SoA storage: re-point each cache at its slice ------
        (
            self._tags_stack,
            self._dirty_stack,
            self._nvalid_stack,
            self._meta_stack,
        ) = stack_vec_caches(caches)
        self._slices = [_BankSlice(cache) for cache in caches]
        self._sample_step = sample_sets
        self._sample_mask = sample_sets - 1
        #: per-configuration cumulative stats since construction
        self.totals = [CoreMemStats() for _ in range(n)]
        #: python-lowering rounds that bailed to the scalar loop (telemetry)
        self.bailouts = 0
        if lowering == "auto":
            lowering = "c" if cext.available() else "python"
        elif lowering == "c" and not cext.available():
            raise SimulationError(
                "C lowering requested but unavailable "
                "(no compiler, or REPRO_CEXT=0)"
            )
        self.lowering = lowering
        self._streams = None
        if lowering == "c":
            self._streams = [cext.stream_for(cache) for cache in caches]
            if any(s is None for s in self._streams):
                raise SimulationError("C lowering unavailable for this policy")

    # -- inspection ----------------------------------------------------------

    def cache(self, c: int):
        """Configuration ``c``'s cache, with the scalar tag lists fresh."""
        cache = self.caches[c]
        if self.lowering == "c":
            cache.resync_tag_lists()
        return cache

    # -- drive ---------------------------------------------------------------

    def _filter(self, lines, writes):
        lines = np.asarray(lines, dtype=np.int64)
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
        if self._sample_mask:
            keep = (lines & self._sample_mask) == 0
            lines = lines[keep]
            if writes is not None:
                writes = writes[keep]
        return lines, writes

    def _finish(self, c: int, stats: CoreMemStats, mem_accesses: int) -> CoreMemStats:
        stats.mem_accesses = mem_accesses
        step = self._sample_step
        if step > 1:
            stats.l3_hits *= step
            stats.l3_misses *= step
            stats.l3_fetches *= step
            stats.dram_writeback_lines *= step
        self.totals[c].add(stats)
        return stats

    def _run_cext(self, c: int, lines, writes) -> CoreMemStats:
        stats = CoreMemStats()
        res = self._streams[c].run(lines, writes)
        stats.l3_hits = res.hits
        stats.l3_misses = res.misses
        stats.l3_fetches = res.misses
        # no private caches: a line goes to DRAM iff its L3 copy was dirty,
        # so the C wb counter is exactly the back-invalidation replay total,
        # and the owner map (which only steers private-level invalidation)
        # can be skipped entirely
        stats.dram_writeback_lines = res.wb
        return stats

    def _run_python(
        self, c: int, lines, writes, rounds: ChunkRounds | None, width: int
    ) -> CoreMemStats:
        sl = self._slices[c]
        stats = run_l3_chunk(
            sl, 0, lines, writes, force=False, rounds=rounds, width=width
        )
        if stats is not None:
            return stats
        # skew bail-out: the scalar per-access protocol on this slice
        self.bailouts += 1
        return self._scalar_chunk(sl, lines, writes)

    @staticmethod
    def _scalar_chunk(sl: _BankSlice, lines, writes) -> CoreMemStats:
        l3 = sl.l3
        code = l3._access_code
        m3, b3 = l3.set_mask, l3.tag_shift
        owner = sl._owner
        back_inv = sl._back_invalidate
        stats = CoreMemStats()
        hits = misses = wb = 0
        writes_l = None if writes is None else writes.tolist()
        for i, line in enumerate(lines.tolist()):
            c3 = code(line & m3, line >> b3, False if writes_l is None else writes_l[i])
            if c3 == HIT:
                hits += 1
            else:
                misses += 1
                owner[line] = 0
                if c3 >= MISS_CLEAN:
                    wb += back_inv(l3.join(line & m3, l3.victim_tag), c3 == MISS_DIRTY)
        stats.l3_hits = hits
        stats.l3_misses = misses
        stats.l3_fetches = misses
        stats.dram_writeback_lines = wb
        return stats

    def access_chunk(self, lines, writes=None) -> list[CoreMemStats]:
        """One shared stream through every configuration (the Target side).

        Returns one :class:`CoreMemStats` per configuration (L3 counters
        rescaled under set sampling) and folds them into :attr:`totals`.
        """
        mem = len(lines)
        flines, fwrites = self._filter(lines, writes)
        out = []
        if self.lowering == "c":
            for c in range(self.n_cfg):
                stats = (
                    self._run_cext(c, flines, fwrites)
                    if len(flines)
                    else CoreMemStats()
                )
                out.append(self._finish(c, stats, mem))
            return out
        rounds = None
        if len(flines) > 1 and not (
            flines[0] == flines[-1] and bool((flines == flines[0]).all())
        ):
            # shared decomposition, built once for the whole bank (constant
            # spin chunks short-circuit inside run_l3_chunk without it)
            rounds = ChunkRounds(
                flines, self.caches[0].set_mask, self.caches[0].tag_shift
            )
        for c in range(self.n_cfg):
            stats = (
                self._run_python(c, flines, fwrites, rounds, self.n_cfg)
                if len(flines)
                else CoreMemStats()
            )
            out.append(self._finish(c, stats, mem))
        return out

    def access_chunks(self, lines_list, writes_list=None) -> list[CoreMemStats]:
        """One stream per configuration (the per-size Pirate side).

        ``lines_list[c]`` drives configuration ``c``; ``writes_list`` is an
        optional parallel list of bool arrays (or None entries).
        """
        if len(lines_list) != self.n_cfg:
            raise ConfigError(
                f"got {len(lines_list)} streams for {self.n_cfg} configurations"
            )
        out = []
        for c in range(self.n_cfg):
            writes = None if writes_list is None else writes_list[c]
            mem = len(lines_list[c])
            flines, fwrites = self._filter(lines_list[c], writes)
            if not len(flines):
                out.append(self._finish(c, CoreMemStats(), mem))
            elif self.lowering == "c":
                out.append(self._finish(c, self._run_cext(c, flines, fwrites), mem))
            else:
                out.append(
                    self._finish(
                        c, self._run_python(c, flines, fwrites, None, 1), mem
                    )
                )
        return out
