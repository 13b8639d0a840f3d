"""The full Table I cache hierarchy: private L1/L2, shared inclusive L3.

One :class:`CacheHierarchy` instance is the memory system of the simulated
machine (``repro.hardware``) *and* the engine of the trace-driven reference
simulator (``repro.reference``) — the paper validates the former against the
latter, so both intentionally share this implementation with different
configurations driving them.

Semantics modelled (all load-bearing for the paper's experiments):

* write-allocate, write-back at every level,
* non-inclusive private L2 (dirty L1 victims are installed into L2),
* **inclusive shared L3**: evicting an L3 line back-invalidates every core's
  L1/L2 copy.  This is why stealing L3 ways also shrinks the Target's
  effective private capacity on Nehalem, and the simulation keeps it,
* demand fetches vs prefetch fetches counted separately per core (§I-B),
* a per-core stream prefetcher training on L2 misses and filling the L3.

The per-access loop is the hottest code in the library.  Two execution
engines run it, selected by ``MachineConfig.kernel``:

``scalar``
    the interpreter loops below — the caches' int-code protocol (no
    allocation per access), pre-bound locals, inlined set/tag splitting.
    This is the oracle every other path is pinned to;
``auto`` (default)
    the C hierarchy walk (:class:`repro.kernels.cext.HierWalk`) — the same
    loops transcribed to C, run in order over each whole chunk, full-path
    and bypass alike.  The walk owns every cache's arrays, and ``l1``,
    ``l2`` and ``l3`` are read-only views of them
    (:class:`~repro.kernels.cext.WalkCache`: geometry, ``probe``,
    ``stats``, ``victim_tag`` and the state readers).  One predicate,
    :func:`repro.kernels.cext.walk_gap`, decides from the config, before
    any cache is built, whether the walk covers the machine.  Where it
    does not — no C compiler, ``REPRO_CEXT=0``, random replacement, more
    than 63 ways, more than 127 cores — the hierarchy builds the scalar
    caches instead, records the reason in :attr:`kernel_degraded` and
    issues one ``RuntimeWarning`` per distinct reason.  Results are
    bit-identical either way.

``access_chunk(..., bypass_private=True)`` additionally skips the private
levels — exact for streaming threads whose reuse distance exceeds the L2
(the Pirate; see ``repro.core.pirate``) and used only there.

Above the kernel modes sits a coarser dispatch, the sweep executor's
*engine tiers* (:data:`repro.core.parallel.ENGINE_TIERS`, DESIGN.md §9):
only ``measure`` runs the hierarchy at all.
"""

from __future__ import annotations

import warnings
from itertools import repeat

import numpy as np

from ..config import MachineConfig
from .base import CoreMemStats
from .prefetch import StreamPrefetcher
from .setassoc import MISS_DIRTY, make_cache

_kernels_mod = None


def _kernels():
    """Import :mod:`repro.kernels` lazily.

    The kernels package imports the cache models, and this module is pulled
    in by ``repro.caches.__init__`` — a module-level import here would make
    ``import repro.kernels`` (e.g. by the kernel test suite) hit a
    partially-initialized module.  Deferring to first hierarchy
    construction breaks the cycle for both import orders.
    """
    global _kernels_mod
    if _kernels_mod is None:
        from .. import kernels

        _kernels_mod = kernels
    return _kernels_mod


#: :attr:`CacheHierarchy.kernel_degraded` reasons already warned about
_warned_reasons: set[str] = set()


def _warn_degraded(reason: str) -> None:
    """One ``RuntimeWarning`` per distinct reason, per process."""
    if reason not in _warned_reasons:
        _warned_reasons.add(reason)
        warnings.warn(
            f"kernel mode auto runs the scalar loops: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )


class CacheHierarchy:
    """Private L1/L2 per core plus one shared L3."""

    def __init__(self, config: MachineConfig, seed: int = 0):
        self.config = config
        n = config.num_cores
        #: why ``auto`` runs the scalar loops instead of the C walk (None
        #: when it has the walk, or the mode is ``scalar``); the harness
        #: reports it as a ``kernel_degraded`` telemetry event
        self.kernel_degraded: str | None = None
        walk = False
        if config.kernel == "auto":
            cext = _kernels().cext
            self.kernel_degraded = cext.walk_gap(config)
            walk = self.kernel_degraded is None
            if not walk:
                _warn_degraded(self.kernel_degraded)
        self._prefetchers: list[StreamPrefetcher | None] = [
            StreamPrefetcher(config.prefetch_trigger, config.prefetch_degree)
            if config.prefetch_enabled
            else None
            for _ in range(n)
        ]
        #: cumulative per-core stats since construction.
        self.totals: list[CoreMemStats] = [CoreMemStats() for _ in range(n)]
        #: L3 line -> core that fetched it; lets back-invalidation visit one
        #: core instead of all (exact for disjoint per-thread address spaces,
        #: see ``MachineConfig.private_data``).
        self._owner: dict[int, int] = {}
        self._private_data: bool = config.private_data
        #: per-core "has ever filled its private caches" flag: a core that
        #: only ran bypass-private chunks (the Pirate) has empty L1/L2, so
        #: back-invalidating its victims can skip the invalidate scans
        self._priv_filled: list[bool] = [False] * n
        #: chunks per (engine, path) — engine ``c``/``scalar``, path
        #: ``full``/``l3only``.  Surfaced as ``kernel_chunks_total`` by the
        #: harness.
        self.kernel_chunks = {
            (engine, path): 0
            for engine in ("c", "scalar")
            for path in ("full", "l3only")
        }
        #: the C hierarchy walk running every chunk.  Once set, its arrays
        #: hold every cache, the owner map, the private-fill flags and the
        #: prefetch tables, and :attr:`l1`/:attr:`l2`/:attr:`l3` are its
        #: read-only :class:`~repro.kernels.cext.WalkCache` views.
        self._walk = None
        if walk:
            self._walk = cext.HierWalk(config, self._prefetchers[0])
            self.l1, self.l2, self.l3 = self._walk.l1, self._walk.l2, self._walk.l3
            self._priv_filled = self._walk.priv_filled
        else:
            self.l1 = [make_cache(config.l1, seed) for _ in range(n)]
            self.l2 = [make_cache(config.l2, seed) for _ in range(n)]
            self.l3 = make_cache(config.l3, seed)

    @property
    def prefetchers(self) -> list[StreamPrefetcher | None]:
        """Per-core stream prefetchers (None where prefetching is off)."""
        if self._walk is not None:
            for core, pf in enumerate(self._prefetchers):
                if pf is not None:
                    self._walk.sync_prefetcher(core, pf)
        return self._prefetchers

    # -- single access (diagnostics / tiny tests) ----------------------------

    def access(self, core: int, line: int, is_write: bool = False) -> CoreMemStats:
        """Run one demand access through the hierarchy; returns its stats."""
        return self.access_chunk(core, [line], [is_write] if is_write else None)

    # -- hot path --------------------------------------------------------------

    def access_chunk(
        self,
        core: int,
        lines,
        writes=None,
        bypass_private: bool = False,
    ) -> CoreMemStats:
        """Run a sequence of demand accesses for ``core``.

        ``lines`` is a sequence of line addresses; ``writes`` is an optional
        parallel boolean sequence (all-read when omitted).  ndarray inputs
        are handed to the C walk as-is and converted to lists for the
        scalar loops.  Returns the chunk's :class:`CoreMemStats` and folds
        it into :attr:`totals`.
        """
        if not bypass_private and len(lines):
            self._priv_filled[core] = True
        path = "l3only" if bypass_private else "full"
        if self._walk is not None:
            stats = self._walk.run(core, lines, writes, bypass_private)
            self.kernel_chunks["c", path] += 1
        else:
            if isinstance(lines, np.ndarray):
                lines = lines.tolist()
            if isinstance(writes, np.ndarray):
                writes = writes.tolist()
            if bypass_private:
                stats = self._access_chunk_l3_only(core, lines, writes)
            else:
                stats = self._access_chunk_full(core, lines, writes)
            self.kernel_chunks["scalar", path] += 1
        self.totals[core].add(stats)
        return stats

    # -- scalar engines ----------------------------------------------------------

    def _access_chunk_full(self, core: int, lines, writes) -> CoreMemStats:
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3
        pf = self._prefetchers[core]

        l1_code = l1._access_code
        l2_code = l2._access_code
        l3_code = l3._access_code
        l3_fill = l3._fill_code
        l3_probe = l3.probe
        pf_observe = pf.observe if pf is not None else None
        owner = self._owner

        m1, b1 = l1.set_mask, l1.tag_shift
        m2, b2 = l2.set_mask, l2.tag_shift
        m3, b3 = l3.set_mask, l3.tag_shift

        stats = CoreMemStats()
        stats.mem_accesses = len(lines)
        l1_hits = 0
        l2_hits = 0
        l3_hits = 0
        l3_misses = 0
        l3_fetches = 0
        pf_fills = 0
        wb_lines = 0

        writes_it = repeat(False) if writes is None else writes
        for line, w in zip(lines, writes_it):
            c1 = l1_code(line & m1, line >> b1, w)
            if c1 == 0:  # HIT
                l1_hits += 1
                continue
            if c1 == 3:  # MISS_DIRTY: install the dirty L1 victim into L2
                wb_lines += self._install_dirty_l2(core, l1.join(line & m1, l1.victim_tag))

            c2 = l2_code(line & m2, line >> b2, False)
            if c2 == 0:
                l2_hits += 1
                continue
            if c2 == 3:
                wb_lines += self._writeback_to_l3(l2.join(line & m2, l2.victim_tag))

            # demand access reaches the shared L3
            c3 = l3_code(line & m3, line >> b3, False)
            if c3 == 0:
                l3_hits += 1
            else:
                l3_misses += 1
                l3_fetches += 1
                owner[line] = core
                if c3 >= 2:  # eviction happened
                    wb_lines += self._back_invalidate(
                        l3.join(line & m3, l3.victim_tag), c3 == 3
                    )
            if pf_observe is not None:
                # the prefetcher trains on every L2 miss and fills the L3
                for pline in pf_observe(line):
                    ps = pline & m3
                    pt = pline >> b3
                    if l3_probe(ps, pt) < 0:
                        pc = l3_fill(ps, pt, False)
                        l3_fetches += 1
                        pf_fills += 1
                        owner[pline] = core
                        if pc >= 2:
                            wb_lines += self._back_invalidate(
                                l3.join(ps, l3.victim_tag), pc == 3
                            )

        stats.l1_hits = l1_hits
        stats.l2_hits = l2_hits
        stats.l3_hits = l3_hits
        stats.l3_misses = l3_misses
        stats.l3_fetches = l3_fetches
        stats.prefetch_fills = pf_fills
        stats.dram_writeback_lines = wb_lines
        return stats

    def _access_chunk_l3_only(self, core: int, lines, writes) -> CoreMemStats:
        """Streaming fast path: demand accesses go straight to the L3.

        Exact for a thread whose per-line reuse distance exceeds its private
        L2 capacity (every access would miss L1/L2 anyway); the Pirate's
        linear sweep over a multi-MB working set qualifies.  The prefetcher
        is *not* engaged: the Pirate's fetch ratio must count every line it
        loses from the L3 (§II-A), so prefetch-covering its misses would
        defeat the monitor.
        """
        l3 = self.l3
        l3_code = l3._access_code
        m3, b3 = l3.set_mask, l3.tag_shift
        owner = self._owner

        stats = CoreMemStats()
        stats.mem_accesses = len(lines)
        l3_hits = 0
        l3_misses = 0
        wb_lines = 0

        writes_it = repeat(False) if writes is None else writes
        for line, w in zip(lines, writes_it):
            c3 = l3_code(line & m3, line >> b3, w)
            if c3 == 0:
                l3_hits += 1
            else:
                l3_misses += 1
                owner[line] = core
                if c3 >= 2:
                    wb_lines += self._back_invalidate(
                        l3.join(line & m3, l3.victim_tag), c3 == 3
                    )

        stats.l3_hits = l3_hits
        stats.l3_misses = l3_misses
        stats.l3_fetches = l3_misses
        stats.dram_writeback_lines = wb_lines
        return stats

    # -- write-back plumbing ----------------------------------------------------

    def _install_dirty_l2(self, core: int, line: int) -> int:
        """Install a dirty L1 victim into L2; returns DRAM writebacks caused."""
        l2 = self.l2[core]
        s = line & l2.set_mask
        code = l2._fill_code(s, line >> l2.tag_shift, True)
        if code == MISS_DIRTY:
            return self._writeback_to_l3(l2.join(s, l2.victim_tag))
        return 0

    def _writeback_to_l3(self, line: int) -> int:
        """Dirty L2 victim written back; returns 1 if it had to go to DRAM."""
        l3 = self.l3
        if l3.mark_dirty(line & l3.set_mask, line >> l3.tag_shift):
            return 0
        # inclusion means this should not happen; be safe and count the line
        return 1

    def _back_invalidate(self, line: int, l3_dirty: bool) -> int:
        """Inclusive-L3 eviction: purge ``line`` from every private cache.

        Returns the number of DRAM writeback lines (0 or 1): the line goes to
        memory once if any cached copy was dirty.
        """
        dirty = l3_dirty
        owner = self._owner.pop(line, -1)
        if self._private_data and owner >= 0:
            if not self._priv_filled[owner]:
                # the owner never filled its private caches (bypass-private
                # Pirate): nothing to scan
                return 1 if dirty else 0
            l1 = self.l1[owner]
            present, was_dirty = l1.invalidate(line & l1.set_mask, line >> l1.tag_shift)
            if present and was_dirty:
                dirty = True
            l2 = self.l2[owner]
            present, was_dirty = l2.invalidate(line & l2.set_mask, line >> l2.tag_shift)
            if present and was_dirty:
                dirty = True
            return 1 if dirty else 0
        for filled, l1 in zip(self._priv_filled, self.l1):
            if not filled:
                continue
            present, was_dirty = l1.invalidate(line & l1.set_mask, line >> l1.tag_shift)
            if present and was_dirty:
                dirty = True
        for filled, l2 in zip(self._priv_filled, self.l2):
            if not filled:
                continue
            present, was_dirty = l2.invalidate(line & l2.set_mask, line >> l2.tag_shift)
            if present and was_dirty:
                dirty = True
        return 1 if dirty else 0

    # -- maintenance ---------------------------------------------------------------

    def flush(self) -> None:
        """Empty every cache and forget prefetch streams (fresh machine)."""
        if self._walk is not None:
            self._walk.reset()
            return
        for c in (*self.l1, *self.l2, self.l3):
            c.flush()
        self._owner.clear()
        self._priv_filled = [False] * len(self.l1)
        for pf in self._prefetchers:
            if pf is not None:
                pf.reset()

    def l3_resident(self, line: int) -> bool:
        """True when ``line`` is currently in the shared L3."""
        l3 = self.l3
        return l3.probe(line & l3.set_mask, line >> l3.tag_shift) >= 0

    def owner_map(self) -> dict[int, int]:
        """Resident L3 line -> the core that fetched it."""
        if self._walk is not None:
            return self._walk.owner_map()
        return dict(self._owner)
