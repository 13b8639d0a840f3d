"""Structure-of-arrays cache models: the state the C hierarchy walk runs on.

Each ``Vec*Cache`` is a :class:`~repro.caches.setassoc.SetAssocCache`
subclass with three storage changes:

* tags live in a 2-D int64 numpy mirror (``-1`` marks an invalid way),
  which the C walk (:class:`repro.kernels.cext.HierWalk`) reads and
  writes in place.  The per-set Python lists the scalar code scans
  (``in``/``index`` stay C-speed) are built from the mirror lazily: a new
  or flushed cache, and one whose lines the walk moved, holds a
  stale-lists marker in their place, and the first scalar use (the code
  protocol, ``probe``, ``invalidate``, ``recency_order``) rebuilds them
  once.  A cache that only the walk drives never builds them, so
  construction costs O(arrays), not one object per set.  Once built, the
  lists are synced at every tag write,
* dirty bits and valid-way counts move into int64 numpy arrays (the
  inherited scalar code mutates them element-wise, unchanged),
* replacement metadata is numpy-only, with the scalar ``_touch``/``_victim``
  hooks reimplemented on it.

Equivalence notes (load-bearing — ``tests/test_kernels.py`` and
``tests/test_hierwalk.py`` pin these against the scalar models):

* **LRU** replaces the recency list with a last-touch stamp per way
  (``argmin`` = least recently touched).  Every touch takes the next value
  of a strictly monotone clock, so stamps are unique within a set.
  Eviction only happens in a full set, where every way has been touched,
  so initial stamps never decide a victim.
* **NRU** keeps the accessed-bit mask as one int64 per set.
* **PLRU** reuses the scalar transition tables as numpy arrays.

Dirty masks and NRU masks are int64 bitmasks, so every policy covers at
most :data:`MAX_WAYS` ways; ``make_vec_cache`` returns ``None`` beyond
that and for random replacement.
"""

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

#: most ways an array-backed cache holds: one bit per way in an int64 mask
MAX_WAYS = 63


class VecSetAssocCache(SetAssocCache):
    """Shared SoA storage; policy subclasses add replacement metadata.

    Every cache's arrays are one slice of a level's stacked storage
    (:func:`make_vec_caches`): ``[n, sets, ways]`` tags and ``[n, sets]``
    dirty masks, valid counts and NRU/PLRU metadata (LRU stamps are
    ``[n, sets, ways]``), so the C walk reaches every core's cache from one
    base pointer and nothing is copied when it attaches
    (:func:`make_vec_cache` builds a stack of one).
    """

    #: replacement metadata is one int64 per way (LRU), not one per set
    _META_PER_WAY = False

    def __init__(self, config: CacheConfig, stack: tuple[np.ndarray, ...], index: int):
        super().__init__(config)
        #: the level's stacked ``(tags, dirty, nvalid, meta)`` arrays and
        #: this cache's slot in them
        self.stack = stack
        self.stack_index = index
        tags, dirty, nvalid, meta = stack
        # numpy replaces the per-set int lists; the inherited scalar methods
        # mutate these element-wise, which numpy setitem supports verbatim
        self._dirty = dirty[index]
        self._nvalid = nvalid[index]
        #: 2-D tag mirror; -1 marks an invalid way.  Kept in lockstep with
        #: the per-set lists, once they exist, at every tag write.
        self._tags_np = tags[index]
        self._meta = meta[index]

    @classmethod
    def new_stack(cls, config: CacheConfig, n: int) -> tuple[np.ndarray, ...]:
        """Empty stacked storage for ``n`` caches of ``config``."""
        sets, ways = config.num_sets, config.ways
        return (
            np.full((n, sets, ways), -1, dtype=np.int64),
            np.zeros((n, sets), dtype=np.int64),
            np.zeros((n, sets), dtype=np.int64),
            np.zeros((n, sets, ways) if cls._META_PER_WAY else (n, sets), dtype=np.int64),
        )

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

    def resync_tag_lists(self) -> None:
        """Rebuild the scalar per-set tag lists from the numpy mirror.

        The C walk (:mod:`repro.kernels.cext`) mutates only the mirror;
        callers that afterwards need the scalar ``in``/``index`` scans (or
        diagnostics like :meth:`VecLRUCache.recency_order`) either pay this
        O(sets·ways) rebuild or :meth:`mark_tag_lists_stale` to defer it to
        the first scalar use.
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


class VecLRUCache(VecSetAssocCache):
    """True LRU as a last-touch stamp per way (``argmin`` = LRU)."""

    _META_PER_WAY = True

    def __init__(self, config: CacheConfig, stack: tuple[np.ndarray, ...], index: int):
        super().__init__(config, stack, index)
        self._rank = self._meta
        self._init_meta()

    def _init_meta(self) -> None:
        # distinct initial stamps keep argmin deterministic before the set
        # fills; they sit below every real stamp and never pick a victim
        # (eviction requires a full set, where every way has been touched).
        # Reset in place: the C walk holds a pointer to the stacked storage.
        self._rank[...] = np.arange(self.ways, dtype=np.int64)
        self._clock = self.ways

    def _touch(self, set_idx: int, way: int) -> None:
        self._rank[set_idx, way] = self._clock
        self._clock += 1

    def _victim(self, set_idx: int) -> int:
        return int(self._rank[set_idx].argmin())

    def recency_order(self, set_idx: int) -> list[int | None]:
        """Tags from LRU to MRU for one set (Fig. 3 stack view)."""
        tags = self._tags[set_idx]
        order = np.argsort(self._rank[set_idx], kind="stable")
        return [tags[int(w)] for w in order]


class VecNRUCache(VecSetAssocCache):
    """Nehalem accessed-bit policy on a numpy bitmask array."""

    def __init__(self, config: CacheConfig, stack: tuple[np.ndarray, ...], index: int):
        if not 1 <= config.ways <= MAX_WAYS:
            raise SimulationError(
                f"array-backed NRU supports 1..{MAX_WAYS} ways, got {config.ways}"
            )
        super().__init__(config, stack, index)
        self._full_mask = (1 << self.ways) - 1
        self._acc = self._meta
        self._init_meta()

    def _init_meta(self) -> None:
        self._acc.fill(0)  # in place, see VecLRUCache._init_meta

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
        # a 1-way set's only bit stays set after every touch
        if self.ways == 1:
            return 0
        raise SimulationError("NRU set with every accessed bit set")

    def _reset_meta(self, set_idx: int, way: int) -> None:
        self._acc[set_idx] &= ~(1 << way)

    def accessed_bits(self, set_idx: int) -> int:
        """Raw accessed-bit mask of a set (diagnostics/tests)."""
        return int(self._acc[set_idx])


class VecPLRUCache(VecSetAssocCache):
    """Tree pseudo-LRU with the transition tables as numpy arrays."""

    #: per way count: (touch ndarray, victim ndarray, touch list, victim
    #: list) — the ndarrays feed the C walk, the lists the scalar hooks
    _np_tables: dict[int, tuple] = {}

    def __init__(self, config: CacheConfig, stack: tuple[np.ndarray, ...], index: int):
        if config.ways & (config.ways - 1):
            raise SimulationError("tree-PLRU requires a power-of-two way count")
        super().__init__(config, stack, index)
        self._levels = config.ways.bit_length() - 1
        if config.ways not in VecPLRUCache._np_tables:
            touch, victim = _build_plru_tables(config.ways)
            VecPLRUCache._np_tables[config.ways] = (
                np.asarray(touch, dtype=np.int64),
                np.asarray(victim, dtype=np.int64),
                touch,
                victim,
            )
        (
            self._touch_np,
            self._victim_np,
            self._touch_tab,
            self._victim_tab,
        ) = VecPLRUCache._np_tables[config.ways]
        self._tree = self._meta
        self._init_meta()

    def _init_meta(self) -> None:
        self._tree.fill(0)  # in place, see VecLRUCache._init_meta

    def _touch(self, set_idx: int, way: int) -> None:
        # Python-list table lookup: cheaper than fancy-indexing the numpy
        # table with a boxed scalar on this per-access path
        self._tree[set_idx] = self._touch_tab[
            (int(self._tree[set_idx]) << self._levels) | way
        ]

    def _victim(self, set_idx: int) -> int:
        return self._victim_tab[int(self._tree[set_idx])]


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


def make_vec_caches(config: CacheConfig, n: int) -> list[VecSetAssocCache] | None:
    """``n`` array-backed caches of ``config`` on one stacked storage.

    Cache ``c`` owns slot ``c`` of every stacked array, so the C walk
    reads the whole level from one base pointer per array.  None if
    ``config.policy`` is uncovered: LRU, NRU and PLRU up to
    :data:`MAX_WAYS` ways are; random replacement draws from a per-cache
    RNG, which the C walk does not model, so it stays scalar.
    """
    cls = _VEC_CLASSES.get(config.policy) if config.ways <= MAX_WAYS else None
    if cls is None:
        return None
    stack = cls.new_stack(config, n)
    return [cls(config, stack, c) for c in range(n)]


def make_vec_cache(config: CacheConfig) -> VecSetAssocCache | None:
    """One array-backed cache for ``config`` (see :func:`make_vec_caches`)."""
    caches = make_vec_caches(config, 1)
    return None if caches is None else caches[0]


_VEC_CLASSES = {"lru": VecLRUCache, "nru": VecNRUCache, "plru": VecPLRUCache}
