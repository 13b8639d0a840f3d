"""Set-associative cache models with pluggable replacement policies.

This module is the innermost loop of every experiment, so it is written for
speed first:

* the primitive operation is :meth:`SetAssocCache._access_code`, which
  returns a small int (``HIT``/``MISS_FREE``/``MISS_CLEAN``/``MISS_DIRTY``)
  and never allocates; the evicted tag is published via ``self.victim_tag``,
* membership tests use ``tag in tags`` (a C-level scan) before ``list.index``
  so cache misses never raise/handle exceptions,
* tags per set live in a plain way-indexed Python list, dirty bits and policy
  metadata are per-set integers,
* tree-PLRU state transitions are precomputed into lookup tables,
* statistics are plain int attributes; :attr:`SetAssocCache.stats` builds a
  :class:`~repro.caches.base.CacheLevelStats` view on demand.

The friendly :meth:`SetAssocCache.access` wrapper (returning
:class:`~repro.caches.base.AccessResult`) exists for tests and diagnostics;
the hierarchy uses the code protocol directly.

Policies:

``LRUCache``
    True least-recently-used, modelled as a recency list per set (§II-B1's
    stack model, Fig. 3).
``NRUCache``
    The Nehalem shared-L3 policy from §II-B2: one *accessed bit* per line;
    eviction takes the first line (in way order) with an unset bit; when
    setting a bit would leave every bit set, all other bits are cleared.
``PLRUCache``
    Tree pseudo-LRU (the paper's L1/L2 policy, Table I).
``RandomCache``
    Random victim; a degenerate baseline for tests.
"""

from __future__ import annotations

import numpy as np

from ..config import CacheConfig
from ..errors import SimulationError
from ..rng import make_rng
from .base import AccessResult, CacheLevelStats

#: Access-code protocol returned by ``_access_code``/``_fill_code``.
HIT = 0
MISS_FREE = 1  # miss that filled an invalid way (no eviction)
MISS_CLEAN = 2  # miss that evicted a clean line (victim_tag valid)
MISS_DIRTY = 3  # miss that evicted a dirty line (victim_tag valid)


class SetAssocCache:
    """Common storage and bookkeeping; subclasses provide victim choice."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.set_mask = self.num_sets - 1
        self.tag_shift = self.num_sets.bit_length() - 1
        #: per-set, way-indexed tag list; ``None`` marks an invalid way.
        self._tags: list[list[int | None]] = [
            [None] * self.ways for _ in range(self.num_sets)
        ]
        #: per-set dirty bitmask (bit w set ⇔ way w dirty).
        self._dirty: list[int] = [0] * self.num_sets
        #: per-set count of valid ways (skips the ``None in tags`` scan once full).
        self._nvalid: list[int] = [0] * self.num_sets
        #: tag evicted by the most recent MISS_CLEAN/MISS_DIRTY access.
        self.victim_tag: int | None = None
        # counters (plain ints on purpose — see module docstring)
        self.acc_count = 0
        self.hit_count = 0
        self.miss_count = 0
        self.evict_count = 0
        self.wb_count = 0
        self.fill_count = 0
        self.inval_count = 0

    # -- address helpers ----------------------------------------------------

    def split(self, line_addr: int) -> tuple[int, int]:
        """Map a line address to ``(set_index, tag)``."""
        return line_addr & self.set_mask, line_addr >> self.tag_shift

    def join(self, set_idx: int, tag: int) -> int:
        """Inverse of :meth:`split`."""
        return (tag << self.tag_shift) | set_idx

    # -- policy hooks (overridden per policy) --------------------------------

    def _touch(self, set_idx: int, way: int) -> None:
        """Update replacement metadata after an access to ``way``."""
        raise NotImplementedError

    def _victim(self, set_idx: int) -> int:
        """Choose the way to evict in a full set."""
        raise NotImplementedError

    def _reset_meta(self, set_idx: int, way: int) -> None:
        """Clear metadata for an invalidated way (default: nothing)."""

    # -- code-protocol primitives (hot path) ----------------------------------

    def _access_code(self, set_idx: int, tag: int, is_write: bool) -> int:
        """Demand access; fills on miss; returns HIT/MISS_* code."""
        self.acc_count += 1
        tags = self._tags[set_idx]
        if tag in tags:
            self.hit_count += 1
            way = tags.index(tag)
            if is_write:
                self._dirty[set_idx] |= 1 << way
            self._touch(set_idx, way)
            return HIT
        self.miss_count += 1
        return self._fill_slow(set_idx, tag, is_write, tags)

    def _fill_code(self, set_idx: int, tag: int, is_write: bool) -> int:
        """Insert without counting a demand access (prefetch fills).

        If the line is already present this only touches replacement state
        and returns HIT.
        """
        tags = self._tags[set_idx]
        if tag in tags:
            way = tags.index(tag)
            if is_write:
                self._dirty[set_idx] |= 1 << way
            self._touch(set_idx, way)
            return HIT
        return self._fill_slow(set_idx, tag, is_write, tags)

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
        if is_write:
            self._dirty[set_idx] |= 1 << way
        else:
            self._dirty[set_idx] &= ~(1 << way)
        self.fill_count += 1
        self._touch(set_idx, way)
        return code

    # -- friendly API ----------------------------------------------------------

    def access(self, set_idx: int, tag: int, is_write: bool = False) -> AccessResult:
        """Demand access returning a structured :class:`AccessResult`."""
        code = self._access_code(set_idx, tag, is_write)
        if code == HIT:
            return AccessResult(hit=True)
        if code == MISS_FREE:
            return AccessResult(hit=False)
        return AccessResult(hit=False, victim_tag=self.victim_tag, victim_dirty=code == MISS_DIRTY)

    def fill(self, set_idx: int, tag: int, is_write: bool = False) -> AccessResult:
        """Non-demand insert returning a structured :class:`AccessResult`."""
        code = self._fill_code(set_idx, tag, is_write)
        if code == HIT:
            return AccessResult(hit=True)
        if code == MISS_FREE:
            return AccessResult(hit=False)
        return AccessResult(hit=False, victim_tag=self.victim_tag, victim_dirty=code == MISS_DIRTY)

    def probe(self, set_idx: int, tag: int) -> int:
        """Way holding ``tag`` or -1; does not update replacement state."""
        tags = self._tags[set_idx]
        if tag in tags:
            return tags.index(tag)
        return -1

    def invalidate(self, set_idx: int, tag: int) -> tuple[bool, bool]:
        """Drop a line if present; returns ``(was_present, was_dirty)``."""
        tags = self._tags[set_idx]
        if tag not in tags:
            return False, False
        way = tags.index(tag)
        was_dirty = bool(self._dirty[set_idx] & (1 << way))
        tags[way] = None
        self._dirty[set_idx] &= ~(1 << way)
        self._nvalid[set_idx] -= 1
        self._reset_meta(set_idx, way)
        self.inval_count += 1
        return True, was_dirty

    def mark_dirty(self, set_idx: int, tag: int) -> bool:
        """Set the dirty bit of a resident line (write-back from below)."""
        way = self.probe(set_idx, tag)
        if way < 0:
            return False
        self._dirty[set_idx] |= 1 << way
        return True

    # -- statistics -------------------------------------------------------------

    @property
    def stats(self) -> CacheLevelStats:
        """Current counters as a :class:`CacheLevelStats` snapshot."""
        return CacheLevelStats(
            accesses=self.acc_count,
            hits=self.hit_count,
            misses=self.miss_count,
            evictions=self.evict_count,
            writebacks=self.wb_count,
            fills=self.fill_count,
            invalidations=self.inval_count,
        )

    # -- snapshots ----------------------------------------------------------------

    _COUNTERS = (
        "acc_count", "hit_count", "miss_count", "evict_count",
        "wb_count", "fill_count", "inval_count",
    )

    def snapshot(self) -> tuple:
        """A copy of everything accesses change: tags, dirty masks, valid
        counts, the victim tag, the counters and the policy's metadata."""
        return (
            [t[:] for t in self._tags],
            self._dirty[:],
            self._nvalid[:],
            self.victim_tag,
            [getattr(self, c) for c in self._COUNTERS],
            self._meta_snapshot(),
        )

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot` (which stays usable)."""
        tags, dirty, nvalid, self.victim_tag, counters, meta = state
        self._tags = [t[:] for t in tags]
        self._dirty = dirty[:]
        self._nvalid = nvalid[:]
        for name, value in zip(self._COUNTERS, counters):
            setattr(self, name, value)
        self._meta_restore(meta)

    def _meta_snapshot(self):
        """Copy of the replacement metadata; subclasses override."""

    def _meta_restore(self, meta) -> None:
        """Install a :meth:`_meta_snapshot` copy; subclasses override."""

    # -- introspection --------------------------------------------------------

    def set_state(self, set_idx: int) -> tuple[list[int | None], int, int]:
        """Way-indexed tags (None = invalid), dirty mask and valid-way count."""
        return list(self._tags[set_idx]), self._dirty[set_idx], self._nvalid[set_idx]

    def resident_tags(self, set_idx: int) -> list[int]:
        """Valid tags of a set, in way order (test/diagnostic helper)."""
        return [t for t in self._tags[set_idx] if t is not None]

    def occupancy(self) -> int:
        """Number of valid lines cache-wide."""
        return sum(self.ways - s.count(None) for s in self._tags)

    def resident_lines(self) -> set[int]:
        """All resident line addresses (reconstructed from set+tag)."""
        out: set[int] = set()
        for set_idx, tags in enumerate(self._tags):
            for tag in tags:
                if tag is not None:
                    out.add(self.join(set_idx, tag))
        return out

    def flush(self) -> None:
        """Invalidate everything and reset policy metadata."""
        for s in range(self.num_sets):
            self._tags[s] = [None] * self.ways
            self._dirty[s] = 0
            self._nvalid[s] = 0
        self._init_meta()

    def _init_meta(self) -> None:
        """(Re)build policy metadata; subclasses override."""


class LRUCache(SetAssocCache):
    """True LRU: per-set recency list of ways, MRU at the end."""

    def __init__(self, config: CacheConfig):
        super().__init__(config)
        self._init_meta()

    def _init_meta(self) -> None:
        self._recency: list[list[int]] = [
            list(range(self.ways)) for _ in range(self.num_sets)
        ]

    def _touch(self, set_idx: int, way: int) -> None:
        rec = self._recency[set_idx]
        rec.remove(way)
        rec.append(way)

    def _victim(self, set_idx: int) -> int:
        return self._recency[set_idx][0]

    def _access_code(self, set_idx: int, tag: int, is_write: bool) -> int:
        # hit path inlined (this cache runs the reference simulator's L3)
        self.acc_count += 1
        tags = self._tags[set_idx]
        if tag in tags:
            self.hit_count += 1
            way = tags.index(tag)
            if is_write:
                self._dirty[set_idx] |= 1 << way
            rec = self._recency[set_idx]
            rec.remove(way)
            rec.append(way)
            return HIT
        self.miss_count += 1
        return self._fill_slow(set_idx, tag, is_write, tags)

    def _meta_snapshot(self) -> list[list[int]]:
        return [r[:] for r in self._recency]

    def _meta_restore(self, meta: list[list[int]]) -> None:
        self._recency = [r[:] for r in meta]

    def recency_order(self, set_idx: int) -> list[int | None]:
        """Tags from LRU to MRU for one set (Fig. 3 stack view)."""
        tags = self._tags[set_idx]
        return [tags[w] for w in self._recency[set_idx]]


class NRUCache(SetAssocCache):
    """Nehalem accessed-bit policy (§II-B2).

    Each line carries an *accessed* bit.  Any access (hit or fill) sets the
    line's bit; if that would leave every way's bit set, all *other* bits are
    cleared, so exactly one bit remains set.  Eviction scans ways in index
    order and takes the first line whose bit is clear.
    """

    def __init__(self, config: CacheConfig):
        super().__init__(config)
        self._full_mask = (1 << self.ways) - 1
        self._init_meta()

    def _init_meta(self) -> None:
        self._acc: list[int] = [0] * self.num_sets

    def _touch(self, set_idx: int, way: int) -> None:
        acc = self._acc
        bits = acc[set_idx] | (1 << way)
        if bits == self._full_mask:
            bits = 1 << way
        acc[set_idx] = bits

    def _victim(self, set_idx: int) -> int:
        bits = self._acc[set_idx]
        # index of the lowest zero bit = index of lowest set bit of ~bits
        inv = ~bits & self._full_mask
        if inv:
            return (inv & -inv).bit_length() - 1
        # unreachable while _touch maintains its invariant, except 1-way sets
        if self.ways == 1:
            return 0
        raise SimulationError("NRU set with every accessed bit set")

    def _reset_meta(self, set_idx: int, way: int) -> None:
        self._acc[set_idx] &= ~(1 << way)

    def _access_code(self, set_idx: int, tag: int, is_write: bool) -> int:
        # hit path inlined (this cache is the machine's shared L3 and takes
        # every Pirate sweep access)
        self.acc_count += 1
        tags = self._tags[set_idx]
        if tag in tags:
            self.hit_count += 1
            way = tags.index(tag)
            if is_write:
                self._dirty[set_idx] |= 1 << way
            acc = self._acc
            bits = acc[set_idx] | (1 << way)
            if bits == self._full_mask:
                bits = 1 << way
            acc[set_idx] = bits
            return HIT
        self.miss_count += 1
        return self._fill_slow(set_idx, tag, is_write, tags)

    def _meta_snapshot(self) -> list[int]:
        return self._acc[:]

    def _meta_restore(self, meta: list[int]) -> None:
        self._acc = meta[:]

    def accessed_bits(self, set_idx: int) -> int:
        """Raw accessed-bit mask of a set (diagnostics/tests)."""
        return self._acc[set_idx]


def _build_plru_tables(ways: int) -> tuple[list[int], list[int]]:
    """Precompute tree-PLRU transition tables for a power-of-two way count.

    Returns ``(touch, victim)``: ``touch[(bits << log2(ways)) | way]`` is the
    tree state after touching ``way``; ``victim[bits]`` is the pseudo-LRU way.
    Tree nodes are stored as a bitmask; bit value 0 means "the LRU side is
    the left subtree".
    """
    levels = ways.bit_length() - 1
    nstates = 1 << max(ways - 1, 0)
    touch = [0] * (nstates * ways)
    victim = [0] * nstates
    for bits in range(nstates):
        node = 0
        way = 0
        for _ in range(levels):
            branch = (bits >> node) & 1
            way = (way << 1) | branch
            node = 2 * node + 1 + branch
        victim[bits] = way
        for w in range(ways):
            b = bits
            node = 0
            for level in range(levels):
                branch = (w >> (levels - 1 - level)) & 1
                if branch:
                    b &= ~(1 << node)
                    node = 2 * node + 2
                else:
                    b |= 1 << node
                    node = 2 * node + 1
            touch[(bits << levels) | w] = b
    return touch, victim


class PLRUCache(SetAssocCache):
    """Tree pseudo-LRU over a power-of-two associativity, table-driven."""

    _tables: dict[int, tuple[list[int], list[int]]] = {}

    def __init__(self, config: CacheConfig):
        if config.ways & (config.ways - 1):
            raise SimulationError("tree-PLRU requires a power-of-two way count")
        super().__init__(config)
        if config.ways not in PLRUCache._tables:
            PLRUCache._tables[config.ways] = _build_plru_tables(config.ways)
        self._touch_tab, self._victim_tab = PLRUCache._tables[config.ways]
        self._levels = config.ways.bit_length() - 1
        self._init_meta()

    def _init_meta(self) -> None:
        self._tree: list[int] = [0] * self.num_sets

    def _touch(self, set_idx: int, way: int) -> None:
        tree = self._tree
        tree[set_idx] = self._touch_tab[(tree[set_idx] << self._levels) | way]

    def _victim(self, set_idx: int) -> int:
        return self._victim_tab[self._tree[set_idx]]

    def _meta_snapshot(self) -> list[int]:
        return self._tree[:]

    def _meta_restore(self, meta: list[int]) -> None:
        self._tree = meta[:]

    def tree_bits(self, set_idx: int) -> int:
        """Tree state of a set (diagnostics/tests)."""
        return self._tree[set_idx]


class RandomCache(SetAssocCache):
    """Random replacement; deterministic given its seed."""

    def __init__(self, config: CacheConfig, seed: int | np.random.Generator | None = 0):
        super().__init__(config)
        self._rng = make_rng(seed)

    def _touch(self, set_idx: int, way: int) -> None:
        pass

    def _victim(self, set_idx: int) -> int:
        return int(self._rng.integers(0, self.ways))

    def _meta_snapshot(self) -> dict:
        return self._rng.bit_generator.state

    def _meta_restore(self, meta: dict) -> None:
        self._rng.bit_generator.state = meta


def make_cache(
    config: CacheConfig, seed: int | np.random.Generator | None = 0
) -> SetAssocCache:
    """Instantiate the cache model named by ``config.policy``."""
    if config.policy == "lru":
        return LRUCache(config)
    if config.policy == "nru":
        return NRUCache(config)
    if config.policy == "plru":
        return PLRUCache(config)
    if config.policy == "random":
        return RandomCache(config, seed)
    raise SimulationError(f"unhandled policy {config.policy!r}")
