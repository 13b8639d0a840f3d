"""Structure-of-arrays cache models backing the vectorized kernels.

Each ``Vec*Cache`` is a :class:`~repro.caches.setassoc.SetAssocCache`
subclass with three storage changes:

* tags live in a 2-D int64 numpy mirror (``-1`` marks an invalid way) —
  batch probes and fills are single gather/scatter operations.  The
  per-set Python lists the scalar code scans (``in``/``index`` stay
  C-speed) are built from the mirror lazily: a new or flushed cache, and
  one whose lines the C hierarchy walk moved, holds a stale-lists marker
  in their place, and the first scalar use (the code protocol,
  ``probe``, ``invalidate``, ``recency_order``, the vector and batch
  kernels) rebuilds them once.  A cache that only the C walk drives never
  builds them, so construction costs O(arrays), not one object per set.
  Once built, the lists are synced at every tag write,
* dirty bits and valid-way counts move into int64 numpy arrays (the
  inherited scalar code mutates them element-wise, unchanged),
* replacement metadata is numpy-only, with the scalar ``_touch``/``_victim``
  hooks reimplemented on it and new ``touch_batch``/``victim_batch`` hooks
  for the kernels.

Equivalence notes (load-bearing — the property suite pins these):

* **LRU** replaces the recency list with a last-touch stamp per way
  (``argmin`` = least recently touched).  Stamps are unique within a set:
  every valid way got its stamp from a touch, the stamp counter is strictly
  monotone, and a set is touched at most once per kernel round.  Eviction
  only happens in a full set, where every way has been touched, so initial
  stamps never decide a victim.
* **NRU** keeps the accessed-bit mask; the batch victim converts the lowest
  clear bit to an index via ``frexp`` (exact for way counts <= 52).
* **PLRU** reuses the scalar transition tables as numpy arrays.

``make_vec_cache`` returns ``None`` for configurations the kernels do not
cover (random replacement, NRU outside 2..52 ways); the hierarchy then
falls back to the scalar classes for that cache.

:meth:`VecSetAssocCache.snapshot`/:meth:`VecSetAssocCache.restore` save and
roll back the complete cache state (tags, dirty/valid, policy metadata,
counters).  The pipelined full-path kernel snapshots the private levels at
the start of every chunk so it can rewind them in the rare case an
inclusive-L3 back-invalidation lands on a line the optimistic pipeline has
already simulated past (see :mod:`repro.kernels.pipekernel`).  Snapshots
reuse preallocated buffers — a snapshot is a handful of ``memcpy``\\ s."""

from __future__ import annotations

import weakref

import numpy as np

from ..caches.setassoc import (
    MISS_CLEAN,
    MISS_DIRTY,
    MISS_FREE,
    SetAssocCache,
    _build_plru_tables,
)
from ..config import CacheConfig
from ..errors import SimulationError

#: ways supported by the NRU/PLRU vector victim math (bitmask in int64,
#: frexp-exact lowest-set-bit extraction)
_MAX_MASK_WAYS = 52


class VecSetAssocCache(SetAssocCache):
    """Shared SoA storage; policy subclasses add metadata + batch hooks."""

    def __init__(self, config: CacheConfig):
        super().__init__(config)
        # numpy replaces the per-set int lists; the inherited scalar methods
        # mutate these element-wise, which numpy setitem supports verbatim
        self._dirty = np.zeros(self.num_sets, dtype=np.int64)
        self._nvalid = np.zeros(self.num_sets, dtype=np.int64)
        #: 2-D tag mirror; -1 marks an invalid way.  Kept in lockstep with
        #: the per-set lists, once they exist, at every tag write.
        self._tags_np = np.full((self.num_sets, self.ways), -1, dtype=np.int64)

    def _new_tag_lists(self) -> _StaleTagLists:
        # built from the (all -1) mirror on first scalar use
        return _StaleTagLists(self)

    # -- scalar protocol (mirror-synced overrides) ---------------------------

    def _fill_slow(
        self, set_idx: int, tag: int, is_write: bool, tags: list[int | None]
    ) -> int:
        code = MISS_FREE
        if self._nvalid[set_idx] < self.ways:
            way = tags.index(None)
            self._nvalid[set_idx] += 1
        else:
            way = self._victim(set_idx)
            self.victim_tag = tags[way]
            self.evict_count += 1
            if self._dirty[set_idx] & (1 << way):
                self.wb_count += 1
                code = MISS_DIRTY
            else:
                code = MISS_CLEAN
        tags[way] = tag
        self._tags_np[set_idx, way] = tag
        if is_write:
            self._dirty[set_idx] |= 1 << way
        else:
            self._dirty[set_idx] &= ~(1 << way)
        self.fill_count += 1
        self._touch(set_idx, way)
        return code

    def invalidate(self, set_idx: int, tag: int) -> tuple[bool, bool]:
        tags = self._tags[set_idx]
        if tag not in tags:
            return False, False
        way = tags.index(tag)
        was_dirty = bool(self._dirty[set_idx] & (1 << way))
        tags[way] = None
        self._tags_np[set_idx, way] = -1
        self._dirty[set_idx] &= ~(1 << way)
        self._nvalid[set_idx] -= 1
        self._reset_meta(set_idx, way)
        self.inval_count += 1
        return True, was_dirty

    def flush(self) -> None:
        self._dirty.fill(0)
        self._nvalid.fill(0)
        self._tags_np.fill(-1)
        self.mark_tag_lists_stale()
        self._init_meta()

    # -- chunk snapshot / rollback -------------------------------------------

    def _meta_arrays(self) -> tuple[np.ndarray, ...]:
        """Policy-metadata arrays included in snapshots (subclass hook)."""
        return ()

    def _extra_state(self) -> tuple:
        """Non-array policy state included in snapshots (subclass hook)."""
        return ()

    def _set_extra_state(self, state: tuple) -> None:
        """Restore :meth:`_extra_state` (subclass hook)."""

    def snapshot(self) -> None:
        """Save the complete cache state into preallocated buffers.

        One snapshot slot: a second :meth:`snapshot` overwrites the first.
        Cost is a few array copies; the scalar tag lists are *not* copied —
        :meth:`restore` rebuilds them from the tag mirror, so the (rare)
        rollback pays that price instead of the (per-chunk) snapshot.
        """
        arrays = (self._tags_np, self._dirty, self._nvalid, *self._meta_arrays())
        buf = getattr(self, "_snap_arrays", None)
        if buf is None:
            self._snap_arrays = tuple(a.copy() for a in arrays)
        else:
            for b, a in zip(buf, arrays):
                np.copyto(b, a)
        self._snap_state = (
            self.acc_count,
            self.hit_count,
            self.miss_count,
            self.evict_count,
            self.wb_count,
            self.fill_count,
            self.inval_count,
            self.victim_tag,
            self._extra_state(),
        )

    def restore(self) -> None:
        """Roll the cache back to the last :meth:`snapshot`."""
        arrays = (self._tags_np, self._dirty, self._nvalid, *self._meta_arrays())
        for a, b in zip(arrays, self._snap_arrays):
            np.copyto(a, b)
        (
            self.acc_count,
            self.hit_count,
            self.miss_count,
            self.evict_count,
            self.wb_count,
            self.fill_count,
            self.inval_count,
            self.victim_tag,
            extra,
        ) = self._snap_state
        self._set_extra_state(extra)
        self.resync_tag_lists()

    def resync_tag_lists(self) -> None:
        """Rebuild the scalar per-set tag lists from the numpy mirror.

        The C lowering (:mod:`repro.kernels.cext`) mutates only the mirror;
        callers that afterwards need the scalar ``in``/``index`` scans (or
        diagnostics like :meth:`VecLRUCache.recency_order`) either replay
        the recorded fill events, pay this O(sets·ways) rebuild, or
        :meth:`mark_tag_lists_stale` to defer it to the first scalar use.
        """
        self._tags = [
            [t if t >= 0 else None for t in row] for row in self._tags_np.tolist()
        ]

    def mark_tag_lists_stale(self) -> None:
        """Defer :meth:`resync_tag_lists` to the next read of the tag lists.

        The hierarchy walk (:class:`repro.kernels.cext.HierWalk`) calls this
        after a chunk that filled or invalidated lines of this cache, and
        :meth:`flush` after clearing the mirror; a new cache starts stale.
        The flag is the tag-list slot itself: it holds a
        :class:`_StaleTagLists` marker until some scalar method (``probe``,
        ``invalidate``, ``recency_order``, the code protocol, ...) indexes
        it, which rebuilds the lists once.  No method pays a per-call check.
        """
        if type(self._tags) is not _StaleTagLists:
            self._tags = _StaleTagLists(self)

    # -- batch protocol (one access per *distinct* set) ----------------------
    #
    # The kernels guarantee every batch holds at most one access per set
    # (round decomposition), so the scatters below never collide.

    def probe_batch(
        self, sets: np.ndarray, tags: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized presence probe: ``(hit_mask, way)`` per access.

        Does not update replacement state; ``way`` is meaningful only where
        ``hit_mask`` is true.  Unlike the batch mutators this is safe for
        duplicate sets (it is a pure read).
        """
        match = self._tags_np[sets] == tags[:, None]
        way = match.argmax(axis=1)
        # argmax of an all-False row is 0; one gather distinguishes it from a
        # genuine way-0 hit (cheaper than a second O(k·ways) any() pass)
        return match[np.arange(len(way)), way], way

    def touch_hits_batch(
        self, sets: np.ndarray, ways: np.ndarray, writes: np.ndarray | None
    ) -> None:
        """Apply the hit path (dirty bit + replacement touch) to a batch."""
        if writes is not None and writes.any():
            ws = sets[writes]
            self._dirty[ws] |= np.int64(1) << ways[writes]
        self.touch_batch(sets, ways)

    def fill_batch(
        self,
        sets: np.ndarray,
        tags: np.ndarray,
        writes: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fill a batch of missing lines; returns ``(codes, victim_tags)``.

        Mirrors :meth:`SetAssocCache._fill_slow` exactly: free ways are
        filled lowest-index-first, full sets evict the policy victim, dirty
        victims count a writeback.  ``victim_tags[i]`` is -1 where no
        eviction happened.  The caller accounts miss/hit counters; this
        method accounts evict/wb/fill like the scalar fill does.
        """
        k = len(sets)
        ways = np.empty(k, dtype=np.int64)
        codes = np.full(k, MISS_FREE, dtype=np.int64)
        vtags = np.full(k, -1, dtype=np.int64)
        has_free = self._nvalid[sets] < self.ways
        if has_free.any():
            fsets = sets[has_free]
            ways[has_free] = (self._tags_np[fsets] == -1).argmax(axis=1)
            self._nvalid[fsets] += 1
        evict = ~has_free
        if evict.any():
            esets = sets[evict]
            eways = self.victim_batch(esets)
            vdirty = (self._dirty[esets] >> eways) & 1
            vtags[evict] = self._tags_np[esets, eways]
            codes[evict] = np.where(vdirty == 1, MISS_DIRTY, MISS_CLEAN)
            ways[evict] = eways
            self.evict_count += int(evict.sum())
            self.wb_count += int(vdirty.sum())
        self._tags_np[sets, ways] = tags
        bit = np.int64(1) << ways
        if writes is None:
            self._dirty[sets] &= ~bit
        else:
            d = self._dirty[sets]
            self._dirty[sets] = np.where(writes, d | bit, d & ~bit)
        self.fill_count += k
        self.touch_batch(sets, ways)
        # sync the scalar tag lists — O(misses), not O(chunk)
        tag_lists = self._tags
        for s, w, t in zip(sets.tolist(), ways.tolist(), tags.tolist()):
            tag_lists[s][w] = t
        return codes, vtags

    # -- policy hooks (batch) -------------------------------------------------

    def touch_batch(self, sets: np.ndarray, ways: np.ndarray) -> None:
        raise NotImplementedError

    def victim_batch(self, sets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def touch_repeat(self, set_idx: int, way: int, count: int) -> None:
        """State after ``count`` consecutive touches of one way.

        NRU and PLRU touches are idempotent after the first (a second touch
        of the already-touched way is a no-op), so one scalar touch suffices;
        LRU overrides this to advance its clock.  Backs the spinning-Pirate
        shortcut in the L3 kernel.
        """
        self._touch(set_idx, way)


class VecLRUCache(VecSetAssocCache):
    """True LRU as a last-touch stamp per way (``argmin`` = LRU)."""

    def __init__(self, config: CacheConfig):
        super().__init__(config)
        self._init_meta()

    def _init_meta(self) -> None:
        # distinct initial stamps keep argmin deterministic before the set
        # fills; they sit below every real stamp and never pick a victim
        # (eviction requires a full set, where every way has been touched).
        # Reset in place on flush: the array may be a view into stacked
        # storage that C code holds a pointer to.
        stamps = np.arange(self.ways, dtype=np.int64)
        if hasattr(self, "_rank"):
            self._rank[...] = stamps
        else:
            self._rank = np.tile(stamps, (self.num_sets, 1))
        self._clock = self.ways

    def _touch(self, set_idx: int, way: int) -> None:
        self._rank[set_idx, way] = self._clock
        self._clock += 1

    def _victim(self, set_idx: int) -> int:
        return int(self._rank[set_idx].argmin())

    def touch_batch(self, sets: np.ndarray, ways: np.ndarray) -> None:
        # one shared stamp per round: sets in a batch are distinct, so only
        # cross-round (monotone) order matters within any one set
        self._rank[sets, ways] = self._clock
        self._clock += 1

    def touch_last_batch(self, sets: np.ndarray, ways: np.ndarray, k: int) -> None:
        """Order-free touch for an all-hit chunk (the resident-set shortcut).

        The final LRU state after a hit-only access sequence depends only on
        each way's *last* touch position, so a single ``maximum.at`` scatter
        replaces the per-round loop.
        """
        stamps = self._clock + np.arange(k, dtype=np.int64)
        # duplicate (set, way) pairs resolve last-assignment-wins, and stamps
        # increase in call order, so this IS the per-way maximum — and every
        # new stamp beats any pre-call rank (the clock is monotone)
        self._rank[sets, ways] = stamps
        self._clock += k

    def victim_batch(self, sets: np.ndarray) -> np.ndarray:
        return self._rank[sets].argmin(axis=1)

    def _meta_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._rank,)

    def _extra_state(self) -> tuple:
        return (self._clock,)

    def _set_extra_state(self, state: tuple) -> None:
        (self._clock,) = state

    def touch_repeat(self, set_idx: int, way: int, count: int) -> None:
        # scalar equivalent: count touches, each stamping the then-current
        # clock — the way ends at clock+count-1 and the clock at clock+count
        self._clock += count
        self._rank[set_idx, way] = self._clock - 1

    def recency_order(self, set_idx: int) -> list[int | None]:
        """Tags from LRU to MRU for one set (Fig. 3 stack view)."""
        tags = self._tags[set_idx]
        order = np.argsort(self._rank[set_idx], kind="stable")
        return [tags[int(w)] for w in order]


class VecNRUCache(VecSetAssocCache):
    """Nehalem accessed-bit policy on a numpy bitmask array."""

    def __init__(self, config: CacheConfig):
        if not 2 <= config.ways <= _MAX_MASK_WAYS:
            raise SimulationError(
                f"vectorized NRU supports 2..{_MAX_MASK_WAYS} ways, "
                f"got {config.ways}"
            )
        super().__init__(config)
        self._full_mask = (1 << self.ways) - 1
        self._init_meta()

    def _init_meta(self) -> None:
        if hasattr(self, "_acc"):
            self._acc.fill(0)  # in place, see VecLRUCache._init_meta
        else:
            self._acc = np.zeros(self.num_sets, dtype=np.int64)

    def _touch(self, set_idx: int, way: int) -> None:
        # int() first: the remaining ops then run on Python ints, not np.int64
        bits = int(self._acc[set_idx]) | (1 << way)
        if bits == self._full_mask:
            bits = 1 << way
        self._acc[set_idx] = bits

    def _victim(self, set_idx: int) -> int:
        inv = ~int(self._acc[set_idx]) & self._full_mask
        if inv:
            return (inv & -inv).bit_length() - 1
        raise SimulationError("NRU set with every accessed bit set")

    def _reset_meta(self, set_idx: int, way: int) -> None:
        self._acc[set_idx] &= ~(1 << way)

    def touch_batch(self, sets: np.ndarray, ways: np.ndarray) -> None:
        bits = self._acc[sets] | (np.int64(1) << ways)
        self._acc[sets] = np.where(
            bits == self._full_mask, np.int64(1) << ways, bits
        )

    def victim_batch(self, sets: np.ndarray) -> np.ndarray:
        inv = ~self._acc[sets] & self._full_mask
        low = inv & -inv
        # low is a power of two (the _touch invariant leaves a clear bit in
        # every full set); frexp exponent-1 is its exact index
        return (np.frexp(low.astype(np.float64))[1] - 1).astype(np.int64)

    def accessed_bits(self, set_idx: int) -> int:
        """Raw accessed-bit mask of a set (diagnostics/tests)."""
        return int(self._acc[set_idx])

    def _meta_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._acc,)


class VecPLRUCache(VecSetAssocCache):
    """Tree pseudo-LRU with the transition tables as numpy arrays."""

    #: per way count: (touch ndarray, victim ndarray, touch list, victim
    #: list, node weights) — the ndarrays feed the batch hooks, the lists
    #: the scalar hooks
    _np_tables: dict[int, tuple] = {}

    def __init__(self, config: CacheConfig):
        if config.ways & (config.ways - 1):
            raise SimulationError("tree-PLRU requires a power-of-two way count")
        super().__init__(config)
        self._levels = config.ways.bit_length() - 1
        if config.ways not in VecPLRUCache._np_tables:
            touch, victim = _build_plru_tables(config.ways)
            VecPLRUCache._np_tables[config.ways] = (
                np.asarray(touch, dtype=np.int64),
                np.asarray(victim, dtype=np.int64),
                touch,
                victim,
                # per level, the tree-bit weights of that level's nodes
                # (level ``lev`` holds nodes ``2^lev - 1 .. 2^(lev+1) - 2``)
                [
                    np.int64(1) << ((1 << lev) - 1 + np.arange(1 << lev, dtype=np.int64))
                    for lev in range(self._levels)
                ],
            )
        (
            self._touch_np,
            self._victim_np,
            self._touch_tab,
            self._victim_tab,
            self._node_weights,
        ) = VecPLRUCache._np_tables[config.ways]
        self._init_meta()

    def _init_meta(self) -> None:
        if hasattr(self, "_tree"):
            self._tree.fill(0)  # in place, see VecLRUCache._init_meta
        else:
            self._tree = np.zeros(self.num_sets, dtype=np.int64)

    def _touch(self, set_idx: int, way: int) -> None:
        # Python-list table lookup: cheaper than fancy-indexing the numpy
        # table with a boxed scalar on this per-access path
        self._tree[set_idx] = self._touch_tab[
            (int(self._tree[set_idx]) << self._levels) | way
        ]

    def _victim(self, set_idx: int) -> int:
        return self._victim_tab[int(self._tree[set_idx])]

    def touch_batch(self, sets: np.ndarray, ways: np.ndarray) -> None:
        self._tree[sets] = self._touch_np[(self._tree[sets] << self._levels) | ways]

    def touch_last_batch(self, sets: np.ndarray, ways: np.ndarray, k: int) -> None:
        """Order-free equivalent of touching ``(sets[i], ways[i])`` in sequence.

        A touch of way ``w`` writes every tree node on its root path, pointing
        it away from ``w``'s half — so each node's final bit is decided solely
        by the *last* touch among the ways in its subtree (bit set iff that
        touch fell in the left half, unchanged if none did).  One stamp
        scatter plus a per-level halved max-reduction replaces the per-round
        loop.
        """
        last = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        # last-assignment-wins + stamps increasing in call order ⇒ per-way max
        last[sets, ways] = np.arange(k, dtype=np.int64)
        set_bits = np.zeros(self.num_sets, dtype=np.int64)
        clr_bits = np.zeros(self.num_sets, dtype=np.int64)
        # bottom-up cascade of pairwise maxes: at level ``lev`` each node's
        # left/right subtree aggregates are adjacent columns of the cascade
        c = last
        for lev in range(self._levels - 1, -1, -1):
            pairs = c.reshape(self.num_sets, 1 << lev, 2)
            lmax = pairs[:, :, 0]
            rmax = pairs[:, :, 1]
            w = self._node_weights[lev]
            set_bits |= (lmax > rmax) @ w
            clr_bits |= (rmax > lmax) @ w
            if lev:
                c = pairs.max(axis=2)
        self._tree |= set_bits
        self._tree &= ~clr_bits

    def victim_batch(self, sets: np.ndarray) -> np.ndarray:
        return self._victim_np[self._tree[sets]]

    def _meta_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._tree,)


class _StaleTagLists:
    """Stand-in for a cache's scalar tag lists while they lag the mirror.

    Any index, assignment or iteration rebuilds the real lists from the
    numpy tag mirror (see :meth:`VecSetAssocCache.mark_tag_lists_stale`)
    and forwards to them.  The marker holds only a weak reference to its
    cache: the cache holds the marker, and a strong back-reference would
    make every marked cache a reference cycle that only a full garbage
    collection frees, arrays and all.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: VecSetAssocCache):
        self._cache = weakref.ref(cache)

    def _lists(self) -> list:
        cache = self._cache()
        if cache._tags is self:
            cache.resync_tag_lists()
        return cache._tags

    def __getitem__(self, i):
        return self._lists()[i]

    def __setitem__(self, i, value) -> None:
        self._lists()[i] = value

    def __iter__(self):
        return iter(self._lists())

    def __len__(self) -> int:
        return len(self._lists())


def stack_vec_caches(caches: list[VecSetAssocCache]) -> tuple[np.ndarray, ...]:
    """Move same-policy, same-set-count caches onto stacked storage.

    Allocates ``tags``/LRU stamps as ``[n, sets, max_ways]`` and dirty
    masks, valid counts and NRU/PLRU metadata as ``[n, sets]``, copies each
    cache's state into its slice and re-points the cache at it
    (``stack[c, :, :ways_c]``), so the scalar and vector methods keep
    working while C code walks every cache from one base pointer.  Returns
    ``(tags, dirty, nvalid, meta)``.
    """
    n = len(caches)
    sets = caches[0].num_sets
    max_ways = max(c.ways for c in caches)
    tags = np.full((n, sets, max_ways), -1, dtype=np.int64)
    dirty = np.zeros((n, sets), dtype=np.int64)
    nvalid = np.zeros((n, sets), dtype=np.int64)
    lru = isinstance(caches[0], VecLRUCache)
    meta = np.zeros((n, sets, max_ways) if lru else (n, sets), dtype=np.int64)
    for c, cache in enumerate(caches):
        w = cache.ways
        tags[c, :, :w] = cache._tags_np
        cache._tags_np = tags[c, :, :w]
        dirty[c] = cache._dirty
        cache._dirty = dirty[c]
        nvalid[c] = cache._nvalid
        cache._nvalid = nvalid[c]
        if lru:
            meta[c, :, :w] = cache._rank
            cache._rank = meta[c, :, :w]
        elif isinstance(cache, VecNRUCache):
            meta[c] = cache._acc
            cache._acc = meta[c]
        else:
            meta[c] = cache._tree
            cache._tree = meta[c]
    return tags, dirty, nvalid, meta


def make_vec_cache(config: CacheConfig) -> VecSetAssocCache | None:
    """Vectorized cache for ``config.policy``, or None if uncovered."""
    if config.policy == "lru":
        return VecLRUCache(config)
    if config.policy == "nru":
        if not 2 <= config.ways <= _MAX_MASK_WAYS:
            return None
        return VecNRUCache(config)
    if config.policy == "plru":
        if config.ways > _MAX_MASK_WAYS:
            return None
        return VecPLRUCache(config)
    # random replacement draws from the scalar RNG per eviction — a batch
    # would change the draw order, so it stays scalar
    return None
