"""The C hierarchy walk: kernel mode ``auto``'s engine for every chunk.

The interpreter loops in :mod:`repro.caches` execute one Python bytecode
sequence per access: probe a set's ways, bump counters, pick a victim,
touch the replacement metadata.  The same small state machines run in a
few nanoseconds per access in C.  The embedded C source has one entry
point, ``hier_walk``: one core's chunk through L1, L2 and the shared L3
in order, prefetcher and inclusive back-invalidation included, wrapped
by :class:`HierWalk`, which owns every cache's arrays and shows each one
to Python as a read-only :class:`WalkCache`.

:func:`load` compiles the source with the system C compiler at first use
(cached by content hash under ``_cext_build/`` next to this file, or
``REPRO_CEXT_DIR``) and binds it with :mod:`ctypes`; no third-party
dependency and nothing at install time.  :func:`walk_gap` is the one
predicate that decides, from a :class:`~repro.config.MachineConfig`
alone, whether the walk covers a machine: it needs the lowering to load
(a C compiler, ``REPRO_CEXT`` not ``0``), LRU/NRU/PLRU at every level
with at most 63 ways, and at most 127 cores.  Where it does not, the
hierarchy runs the scalar interpreter, the oracle the walk is pinned to
bit for bit (``tests/test_hierwalk.py``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..caches.base import CacheLevelStats, CoreMemStats
from ..caches.setassoc import SetAssocCache, _build_plru_tables
from ..config import CacheConfig
from ..errors import SimulationError

#: C ``POLICY_*`` codes of the replacement policies the walk models
_POLICIES = {"lru": 0, "nru": 1, "plru": 2}
#: most ways a walked cache holds: one bit per way in an int64 mask
MAX_WAYS = 63

#: C replica of the scalar per-access protocol (``SetAssocCache``):
#: free ways fill lowest-index-first, LRU evicts the first strict-minimum
#: stamp (numpy ``argmin`` tie-break), NRU touch saturates-and-resets the
#: accessed mask and evicts the lowest clear bit, PLRU walks the
#: precomputed transition tables.
_SOURCE = r"""
#include <stdint.h>

#define POLICY_LRU 0
#define POLICY_NRU 1
#define POLICY_PLRU 2

/* ---- hier_walk: one core's chunk through the whole hierarchy, in order ----
 *
 * A transcription of CacheHierarchy._access_chunk_full / _l3_only and the
 * SetAssocCache code protocol they call.  Every level is an array of
 * per-core caches stacked on one base pointer (core c's arrays start c
 * caches in); the shared L3 is a stack of one. */

#define HIT 0
#define MISS_FREE 1
#define MISS_CLEAN 2
#define MISS_DIRTY 3

/* per-cache counter slots: the SetAssocCache counters, then the victim_tag
 * side channel (flag + tag of the most recent eviction) */
enum { C_ACC, C_HIT, C_MISS, C_EVICT, C_WB, C_FILL, C_INVAL, C_VSET, C_VTAG,
       NCNT };

typedef struct {
    int64_t ways, set_mask, tag_shift, policy, levels, full_mask, sets;
    int64_t *tags, *dirty, *nvalid, *meta, *clock, *cnt;
    const int64_t *plru_touch, *plru_victim;
} Level;

typedef struct {
    Level l1, l2, l3;
    int64_t ncores, private_data;
    int8_t *owner;          /* per L3 slot (set * ways + way); -1 = none */
    uint8_t *priv_filled;   /* per core */
    int64_t pf_on, pf_trigger, pf_degree, pf_size;
    int64_t *pf_tab;        /* per core, per stream: next, count, frontier, live */
    int64_t *pf_meta;       /* per core: used, head, issued, started */
    int64_t *out;           /* chunk stats, see OUT_* */
} Walk;

enum { OUT_L1H, OUT_L2H, OUT_L3H, OUT_L3M, OUT_FETCH, OUT_PF, OUT_WB, NOUT };

/* one core's cache of a level */
typedef struct {
    int64_t ways, set_mask, tag_shift, policy, levels, full_mask, mrow;
    int64_t *tags, *dirty, *nvalid, *meta, *clock, *cnt;
    const int64_t *pt, *pv;
} Cache;

static void bind(Cache *c, const Level *L, int64_t core)
{
    c->ways = L->ways;
    c->set_mask = L->set_mask;
    c->tag_shift = L->tag_shift;
    c->policy = L->policy;
    c->levels = L->levels;
    c->full_mask = L->full_mask;
    c->mrow = L->policy == POLICY_LRU ? L->ways : 1;
    c->tags = L->tags + core * L->sets * L->ways;
    c->dirty = L->dirty + core * L->sets;
    c->nvalid = L->nvalid + core * L->sets;
    c->meta = L->meta + core * L->sets * c->mrow;
    c->clock = L->clock + core;
    c->cnt = L->cnt + core * NCNT;
    c->pt = L->plru_touch;
    c->pv = L->plru_victim;
}

static inline int64_t find_way(const Cache *c, int64_t set, int64_t tag)
{
    const int64_t *row = c->tags + set * c->ways;
    for (int64_t j = 0; j < c->ways; j++)
        if (row[j] == tag) return j;
    return -1;
}

static inline void touch(Cache *c, int64_t set, int64_t w)
{
    int64_t *m = c->meta + set * c->mrow;
    if (c->policy == POLICY_LRU) {
        m[w] = (*c->clock)++;
    } else if (c->policy == POLICY_NRU) {
        int64_t bits = m[0] | ((int64_t)1 << w);
        if (bits == c->full_mask) bits = (int64_t)1 << w;
        m[0] = bits;
    } else {
        m[0] = c->pt[(m[0] << c->levels) | w];
    }
}

static inline int64_t victim(const Cache *c, int64_t set)
{
    const int64_t *m = c->meta + set * c->mrow;
    if (c->policy == POLICY_LRU) {
        int64_t best = m[0], w = 0;
        for (int64_t j = 1; j < c->ways; j++)
            if (m[j] < best) { best = m[j]; w = j; }
        return w;
    }
    if (c->policy == POLICY_NRU) {
        /* NRUCache._victim: a 1-way set's only bit is always set */
        uint64_t inv = (uint64_t)(~m[0] & c->full_mask);
        return inv ? __builtin_ctzll(inv) : 0;
    }
    return c->pv[m[0]];
}

/* SetAssocCache._fill_slow; *way gets the filled way, *vtag the victim */
static int fill_slow(Cache *c, int64_t set, int64_t tag, int is_write,
                     int64_t *way, int64_t *vtag)
{
    int64_t *row = c->tags + set * c->ways;
    int code = MISS_FREE;
    int64_t w;
    if (c->nvalid[set] < c->ways) {
        for (w = 0; row[w] != -1; w++) {}
        c->nvalid[set]++;
    } else {
        w = victim(c, set);
        *vtag = row[w];
        c->cnt[C_VSET] = 1;
        c->cnt[C_VTAG] = row[w];
        c->cnt[C_EVICT]++;
        if ((c->dirty[set] >> w) & 1) { c->cnt[C_WB]++; code = MISS_DIRTY; }
        else code = MISS_CLEAN;
    }
    row[w] = tag;
    if (is_write) c->dirty[set] |= (int64_t)1 << w;
    else c->dirty[set] &= ~((int64_t)1 << w);
    c->cnt[C_FILL]++;
    touch(c, set, w);
    *way = w;
    return code;
}

/* SetAssocCache._access_code */
static inline int access_code(Cache *c, int64_t set, int64_t tag, int is_write,
                              int64_t *way, int64_t *vtag)
{
    c->cnt[C_ACC]++;
    int64_t w = find_way(c, set, tag);
    if (w >= 0) {
        c->cnt[C_HIT]++;
        if (is_write) c->dirty[set] |= (int64_t)1 << w;
        touch(c, set, w);
        *way = w;
        return HIT;
    }
    c->cnt[C_MISS]++;
    return fill_slow(c, set, tag, is_write, way, vtag);
}

/* SetAssocCache._fill_code */
static int fill_code(Cache *c, int64_t set, int64_t tag, int is_write,
                     int64_t *way, int64_t *vtag)
{
    int64_t w = find_way(c, set, tag);
    if (w >= 0) {
        if (is_write) c->dirty[set] |= (int64_t)1 << w;
        touch(c, set, w);
        *way = w;
        return HIT;
    }
    return fill_slow(c, set, tag, is_write, way, vtag);
}

/* SetAssocCache.invalidate: 0 absent, 1 dropped clean, 2 dropped dirty */
static int invalidate(Cache *c, int64_t line)
{
    int64_t set = line & c->set_mask;
    int64_t w = find_way(c, set, line >> c->tag_shift);
    if (w < 0) return 0;
    int64_t bit = (int64_t)1 << w;
    int d = (c->dirty[set] & bit) != 0;
    c->tags[set * c->ways + w] = -1;
    c->dirty[set] &= ~bit;
    c->nvalid[set]--;
    if (c->policy == POLICY_NRU) c->meta[set] &= ~bit;
    c->cnt[C_INVAL]++;
    return d ? 2 : 1;
}

/* CacheHierarchy._back_invalidate: DRAM write-back lines (0 or 1) */
static int64_t back_invalidate(const Walk *W, int64_t line, int dirty,
                               int64_t owner)
{
    Cache c;
    if (W->private_data && owner >= 0) {
        if (!W->priv_filled[owner]) return dirty;
        bind(&c, &W->l1, owner);
        if (invalidate(&c, line) == 2) dirty = 1;
        bind(&c, &W->l2, owner);
        if (invalidate(&c, line) == 2) dirty = 1;
        return dirty;
    }
    for (int64_t k = 0; k < W->ncores; k++) {
        if (!W->priv_filled[k]) continue;
        bind(&c, &W->l1, k);
        if (invalidate(&c, line) == 2) dirty = 1;
    }
    for (int64_t k = 0; k < W->ncores; k++) {
        if (!W->priv_filled[k]) continue;
        bind(&c, &W->l2, k);
        if (invalidate(&c, line) == 2) dirty = 1;
    }
    return dirty;
}

/* CacheHierarchy._writeback_to_l3 */
static int64_t writeback_to_l3(Cache *l3, int64_t line)
{
    int64_t set = line & l3->set_mask;
    int64_t w = find_way(l3, set, line >> l3->tag_shift);
    if (w < 0) return 1;
    l3->dirty[set] |= (int64_t)1 << w;
    return 0;
}

/* an L3 fill by `core` that returned `code` into `way`: record the slot's
 * new owner and back-invalidate the victim (read its owner first: victim
 * and new line share the slot) */
static int64_t l3_filled(const Walk *W, Cache *l3, int64_t core, int64_t set,
                         int64_t way, int code, int64_t vtag)
{
    int8_t *slot = W->owner + set * l3->ways + way;
    int64_t prev = *slot;
    *slot = (int8_t)core;
    if (code < MISS_CLEAN) return 0;
    return back_invalidate(W, (vtag << l3->tag_shift) | set,
                           code == MISS_DIRTY, prev);
}

/* StreamPrefetcher stream table, one row per stream: the dict keyed by
 * next_line becomes a `live` flag (keys of live rows are unique), the FIFO
 * list a ring (`used` rows allocated, `head` = oldest once full) */
enum { PF_NEXT, PF_COUNT, PF_FRONTIER, PF_LIVE, PF_ROW };
enum { PF_USED, PF_HEAD, PF_ISSUED, PF_STARTED };

/* _by_next[key] = row s (displacing any other live row under key) */
static void pf_insert(int64_t *tab, int64_t size, int64_t s, int64_t key)
{
    for (int64_t j = 0; j < size; j++) {
        int64_t *r = tab + j * PF_ROW;
        if (r[PF_LIVE] && r[PF_NEXT] == key) r[PF_LIVE] = 0;
    }
    tab[s * PF_ROW + PF_NEXT] = key;
    tab[s * PF_ROW + PF_LIVE] = 1;
}

/* StreamPrefetcher.observe: returns the prefetch count, first line in *lo */
static int64_t pf_observe(const Walk *W, int64_t core, int64_t line, int64_t *lo)
{
    int64_t size = W->pf_size;
    int64_t *tab = W->pf_tab + core * size * PF_ROW;
    int64_t *meta = W->pf_meta + core * 4;
    int64_t *st = 0;
    for (int64_t j = 0; j < size; j++) {
        int64_t *r = tab + j * PF_ROW;
        if (r[PF_LIVE] && r[PF_NEXT] == line) { st = r; break; }
    }
    if (!st) {
        /* _allocate: a fresh row until the table is full, then recycle
         * the oldest in place */
        int64_t s;
        if (meta[PF_USED] >= size) {
            s = meta[PF_HEAD];
            meta[PF_HEAD] = (s + 1) % size;
        } else {
            s = meta[PF_USED]++;
        }
        tab[s * PF_ROW + PF_LIVE] = 0;
        tab[s * PF_ROW + PF_COUNT] = 1;
        tab[s * PF_ROW + PF_FRONTIER] = line;
        pf_insert(tab, size, s, line + 1);
        meta[PF_STARTED]++;
        return 0;
    }
    st[PF_LIVE] = 0;
    st[PF_COUNT]++;
    pf_insert(tab, size, (st - tab) / PF_ROW, line + 1);
    if (st[PF_COUNT] < W->pf_trigger) return 0;
    int64_t target = line + W->pf_degree;
    if (st[PF_FRONTIER] < line) st[PF_FRONTIER] = line;
    if (target <= st[PF_FRONTIER]) return 0;
    *lo = st[PF_FRONTIER] + 1;
    int64_t n = target - st[PF_FRONTIER];
    st[PF_FRONTIER] = target;
    meta[PF_ISSUED] += n;
    return n;
}

void hier_walk(const Walk *W, int64_t core, const int64_t *lines,
               const uint8_t *writes, int64_t n, int64_t bypass_private)
{
    Cache l1, l2, l3;
    bind(&l3, &W->l3, 0);
    int64_t l1h = 0, l2h = 0, l3h = 0, l3m = 0, fetch = 0, pff = 0, wb = 0;
    int64_t way, vtag = 0;
    int code;
    if (bypass_private) {
        /* _access_chunk_l3_only */
        for (int64_t i = 0; i < n; i++) {
            int64_t line = lines[i];
            int64_t s3 = line & l3.set_mask;
            code = access_code(&l3, s3, line >> l3.tag_shift,
                               writes ? writes[i] : 0, &way, &vtag);
            if (code == HIT) { l3h++; continue; }
            l3m++;
            wb += l3_filled(W, &l3, core, s3, way, code, vtag);
        }
        fetch = l3m;
    } else {
        bind(&l1, &W->l1, core);
        bind(&l2, &W->l2, core);
        for (int64_t i = 0; i < n; i++) {
            int64_t line = lines[i];
            int64_t s1 = line & l1.set_mask;
            code = access_code(&l1, s1, line >> l1.tag_shift,
                               writes ? writes[i] : 0, &way, &vtag);
            if (code == HIT) { l1h++; continue; }
            if (code == MISS_DIRTY) {
                /* _install_dirty_l2 */
                int64_t v = (vtag << l1.tag_shift) | s1;
                int64_t sv = v & l2.set_mask;
                if (fill_code(&l2, sv, v >> l2.tag_shift, 1, &way, &vtag)
                        == MISS_DIRTY)
                    wb += writeback_to_l3(&l3, (vtag << l2.tag_shift) | sv);
            }
            int64_t s2 = line & l2.set_mask;
            code = access_code(&l2, s2, line >> l2.tag_shift, 0, &way, &vtag);
            if (code == HIT) { l2h++; continue; }
            if (code == MISS_DIRTY)
                wb += writeback_to_l3(&l3, (vtag << l2.tag_shift) | s2);
            int64_t s3 = line & l3.set_mask;
            code = access_code(&l3, s3, line >> l3.tag_shift, 0, &way, &vtag);
            if (code == HIT) {
                l3h++;
            } else {
                l3m++;
                fetch++;
                wb += l3_filled(W, &l3, core, s3, way, code, vtag);
            }
            if (W->pf_on) {
                int64_t lo = 0;
                int64_t np = pf_observe(W, core, line, &lo);
                for (int64_t p = lo; p < lo + np; p++) {
                    int64_t ps = p & l3.set_mask;
                    int64_t pt = p >> l3.tag_shift;
                    if (find_way(&l3, ps, pt) >= 0) continue;
                    code = fill_slow(&l3, ps, pt, 0, &way, &vtag);
                    fetch++;
                    pff++;
                    wb += l3_filled(W, &l3, core, ps, way, code, vtag);
                }
            }
        }
    }
    int64_t *o = W->out;
    o[OUT_L1H] = l1h;
    o[OUT_L2H] = l2h;
    o[OUT_L3H] = l3h;
    o[OUT_L3M] = l3m;
    o[OUT_FETCH] = fetch;
    o[OUT_PF] = pff;
    o[OUT_WB] = wb;
}
"""

_lib = None
_tried = False
_reason: str | None = None


def _build_dir() -> Path:
    env = os.environ.get("REPRO_CEXT_DIR")
    if env:
        return Path(env)
    here = Path(__file__).resolve().parent / "_cext_build"
    try:
        here.mkdir(parents=True, exist_ok=True)
        return here
    except OSError:
        uid = getattr(os, "getuid", lambda: 0)()
        return Path(tempfile.gettempdir()) / f"repro-cext-{uid}"


def _compile() -> ctypes.CDLL:
    """Build (or reuse) the content-hashed shared object and open it.

    Every file is written under a per-process temporary name and then
    ``os.replace``-d into place, so concurrent builders (pool workers
    starting together) never read each other's half-written files.
    """
    cc = shutil.which(os.environ.get("CC") or "cc") or shutil.which("gcc")
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    bdir = _build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    so = bdir / f"cext-{digest}.so"
    if not so.exists():
        pid = os.getpid()
        csrc = bdir / f".cext-{digest}.{pid}.c"
        tmp = bdir / f".cext-{digest}.{pid}.so"
        try:
            csrc.write_text(_SOURCE)
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp), str(csrc)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so)
            os.replace(csrc, bdir / f"cext-{digest}.c")  # kept for inspection
        except subprocess.CalledProcessError as exc:
            err = exc.stderr.decode(errors="replace").strip().splitlines()
            raise RuntimeError(
                f"C compile failed: {err[-1] if err else exc}"
            ) from None
        finally:
            csrc.unlink(missing_ok=True)
            tmp.unlink(missing_ok=True)
    lib = ctypes.CDLL(str(so))
    walk = lib.hier_walk
    walk.restype = None
    walk.argtypes = [
        ctypes.c_void_p,  # Walk *
        ctypes.c_longlong,  # core
        ctypes.c_void_p,  # lines
        ctypes.c_void_p,  # writes (NULL = all reads)
        ctypes.c_longlong,  # n
        ctypes.c_longlong,  # bypass_private
    ]
    return lib


def load():
    """Compile (once, content-hashed) and open the C lowering; None if unavailable.

    Unavailable means: ``REPRO_CEXT`` is ``0``/``off``/``false``, no C
    compiler on PATH, or the compile/load failed; :func:`unavailable_reason`
    says which.  The result (including failure) is cached for the process,
    so callers may probe freely.
    """
    global _lib, _tried, _reason
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_CEXT", "1").lower() in ("0", "off", "false", "no"):
        _reason = "disabled by REPRO_CEXT=0"
        return None
    # any build/load failure means "use Python": no compiler, a failed or
    # timed-out compile, an unwritable build dir, an unloadable object
    try:
        _lib = _compile()
    except (OSError, RuntimeError, subprocess.SubprocessError, AttributeError) as exc:
        _reason = str(exc) or type(exc).__name__
    return _lib


def available() -> bool:
    """True when the C lowering can be used in this process."""
    return load() is not None


def unavailable_reason() -> str | None:
    """Why :func:`load` returned None (None when the lowering loaded)."""
    load()
    return _reason


def _ptr(arr):
    return None if arr is None else arr.ctypes.data


class _Level(ctypes.Structure):
    """C ``Level``: one cache level, stacked over cores."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "ways", "set_mask", "tag_shift", "policy", "levels", "full_mask", "sets"
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "tags", "dirty", "nvalid", "meta", "clock", "cnt",
            "plru_touch", "plru_victim",
        )
    ]


class _Walk(ctypes.Structure):
    """C ``Walk``: the whole hierarchy's state, by pointer."""

    _fields_ = [
        ("l1", _Level),
        ("l2", _Level),
        ("l3", _Level),
        ("ncores", ctypes.c_int64),
        ("private_data", ctypes.c_int64),
        ("owner", ctypes.c_void_p),
        ("priv_filled", ctypes.c_void_p),
        ("pf_on", ctypes.c_int64),
        ("pf_trigger", ctypes.c_int64),
        ("pf_degree", ctypes.c_int64),
        ("pf_size", ctypes.c_int64),
        ("pf_tab", ctypes.c_void_p),
        ("pf_meta", ctypes.c_void_p),
        ("out", ctypes.c_void_p),
    ]


#: per-cache counter slots written by the walk (C ``NCNT``): the
#: ``SetAssocCache`` counters, then the ``victim_tag`` flag and tag
_NCNT = 9
_C_VSET, _C_VTAG = 7, 8
#: per-core stream-table scalars: used, head, issued, started
_PF_META = 4
#: owner bytes are int8; -1 marks "no owner"
_MAX_WALK_CORES = 127


@functools.cache
def _plru_tables(ways: int) -> tuple[np.ndarray, np.ndarray]:
    """The scalar tree-PLRU transition tables as read-only int64 arrays."""
    tables = tuple(np.asarray(t, dtype=np.int64) for t in _build_plru_tables(ways))
    for t in tables:
        t.flags.writeable = False
    return tables


class WalkCache:
    """Read-only view of one cache the walk runs on: one core's slot of a level.

    It has the geometry and the readers of
    :class:`~repro.caches.setassoc.SetAssocCache` (``probe``, ``set_state``,
    ``resident_tags``, ``resident_lines``, ``occupancy``, ``stats``,
    ``victim_tag`` and the policy's replacement-state reader) and no write
    path: only :class:`HierWalk` changes the state.  It holds numpy views
    of the level's arrays and of its counter row, never the walk, so a
    dead hierarchy is freed without a garbage-collection pass.
    """

    split = SetAssocCache.split
    join = SetAssocCache.join

    def __init__(self, config: CacheConfig, tags, dirty, nvalid, meta, cnt):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.set_mask = self.num_sets - 1
        self.tag_shift = self.num_sets.bit_length() - 1
        #: ``[sets, ways]`` tags (-1 marks an invalid way), ``[sets]`` dirty
        #: masks and valid-way counts, replacement metadata (LRU stamps
        #: ``[sets, ways]``, NRU/PLRU masks ``[sets]``), counter row; the
        #: views are read-only, the walk writes through the base arrays
        self._tags, self._dirty, self._nvalid, self._meta, self._cnt = views = (
            tags, dirty, nvalid, meta, cnt
        )
        for view in views:
            view.flags.writeable = False

    @property
    def victim_tag(self) -> int | None:
        """Tag evicted by the most recent eviction (None before the first)."""
        return int(self._cnt[_C_VTAG]) if self._cnt[_C_VSET] else None

    @property
    def stats(self) -> CacheLevelStats:
        """Current counters as a :class:`CacheLevelStats` snapshot."""
        return CacheLevelStats(*self._cnt[:_C_VSET].tolist())

    def probe(self, set_idx: int, tag: int) -> int:
        """Way holding ``tag`` or -1."""
        ways = np.flatnonzero(self._tags[set_idx] == tag)
        return int(ways[0]) if ways.size else -1

    def set_state(self, set_idx: int) -> tuple[list[int | None], int, int]:
        """Way-indexed tags (None = invalid), dirty mask and valid-way count."""
        tags = [t if t >= 0 else None for t in self._tags[set_idx].tolist()]
        return tags, int(self._dirty[set_idx]), int(self._nvalid[set_idx])

    def resident_tags(self, set_idx: int) -> list[int]:
        """Valid tags of a set, in way order."""
        return [t for t in self._tags[set_idx].tolist() if t >= 0]

    def occupancy(self) -> int:
        """Number of valid lines cache-wide."""
        return int(np.count_nonzero(self._tags >= 0))

    def resident_lines(self) -> set[int]:
        """All resident line addresses."""
        sets, ways = np.nonzero(self._tags >= 0)
        return set(((self._tags[sets, ways] << self.tag_shift) | sets).tolist())

    def recency_order(self, set_idx: int) -> list[int | None]:
        """Tags from LRU to MRU for one set (LRU levels only)."""
        stamps = self._policy_meta("lru", set_idx)
        tags = self.set_state(set_idx)[0]
        return [tags[w] for w in np.argsort(stamps, kind="stable").tolist()]

    def accessed_bits(self, set_idx: int) -> int:
        """Raw accessed-bit mask of a set (NRU levels only)."""
        return int(self._policy_meta("nru", set_idx))

    def tree_bits(self, set_idx: int) -> int:
        """Tree state of a set (PLRU levels only)."""
        return int(self._policy_meta("plru", set_idx))

    def _policy_meta(self, policy: str, set_idx: int):
        if self.config.policy != policy:
            raise SimulationError(
                f"{self.config.name} uses {self.config.policy} replacement, not {policy}"
            )
        return self._meta[set_idx]


class HierWalk:
    """ctypes binding of ``hier_walk`` for one :class:`CacheHierarchy`.

    Built only for a machine :func:`walk_gap` clears.  It owns the whole
    hierarchy's state as numpy arrays the C code runs on in place:

    * per level, ``[n, sets, ways]`` tags (-1 = invalid way) and ``[n,
      sets]`` dirty masks and valid-way counts, plus LRU stamps ``[n,
      sets, ways]`` or NRU/PLRU masks ``[n, sets]``, where ``n`` is the
      core count for L1/L2 and 1 for the shared L3: C finds core ``k``'s
      cache at slot ``k``,
    * per cache, cumulative counters (``_cnt``) and, for LRU, the stamp
      clock (``_clock``),
    * ``owner`` — one byte per L3 slot (``set * ways + way``), the core
      that filled the line there, -1 for none.  Equivalent to the
      hierarchy's ``_owner`` dict because an owner entry lives exactly as
      long as its line is resident,
    * ``priv_filled`` — the per-core "has filled its private caches" flag,
    * ``pf_tab``/``pf_meta`` — each core's stream-prefetcher table as rows
      of (next line, count, frontier, live) plus (used, head, issued,
      started); see :meth:`repro.caches.prefetch.StreamPrefetcher.load_table`.

    :attr:`l1`, :attr:`l2` and :attr:`l3` are read-only
    :class:`WalkCache` views of the per-core slots.  ``pf`` is a
    prefetcher of the machine (None when prefetching is off); the walk
    takes its trigger, degree and table size.
    """

    def __init__(self, config, pf):
        self._fn = load().hier_walk
        n = config.num_cores
        self._cnt = np.zeros((2 * n + 1, _NCNT), dtype=np.int64)
        self._clock = np.empty(2 * n + 1, dtype=np.int64)
        self._levels = []
        w = _Walk()
        views = []
        for field, cfg, count, row in (
            ("l1", config.l1, n, 0), ("l2", config.l2, n, n), ("l3", config.l3, 1, 2 * n)
        ):
            lv, arrays = self._level(cfg, count, row)
            setattr(w, field, lv)
            views.append(
                [WalkCache(cfg, *(a[k] for a in arrays), self._cnt[row + k]) for k in range(count)]
            )
        self.l1, self.l2, (self.l3,) = views
        self.owner = np.empty(config.l3.num_sets * config.l3.ways, dtype=np.int8)
        self.priv_filled = np.empty(n, dtype=np.uint8)
        size = pf.table_size if pf is not None else 1
        self.pf_tab = np.empty((n, size, 4), dtype=np.int64)
        self.pf_meta = np.zeros((n, _PF_META), dtype=np.int64)
        self._out = np.zeros(7, dtype=np.int64)
        w.ncores = n
        w.private_data = 1 if config.private_data else 0
        w.owner = self.owner.ctypes.data
        w.priv_filled = self.priv_filled.ctypes.data
        w.pf_on = 1 if pf is not None else 0
        w.pf_trigger = pf.trigger if pf is not None else 1
        w.pf_degree = pf.degree if pf is not None else 1
        w.pf_size = size
        w.pf_tab = self.pf_tab.ctypes.data
        w.pf_meta = self.pf_meta.ctypes.data
        w.out = self._out.ctypes.data
        self._walk = w
        self._ref = ctypes.byref(w)
        self.reset()

    def _level(self, cfg: CacheConfig, count: int, row: int):
        """Allocate ``count`` caches of ``cfg`` on one stacked storage."""
        sets, ways = cfg.num_sets, cfg.ways
        per_way = cfg.policy == "lru"
        arrays = (
            np.empty((count, sets, ways), dtype=np.int64),  # tags
            np.empty((count, sets), dtype=np.int64),  # dirty
            np.empty((count, sets), dtype=np.int64),  # nvalid
            np.empty((count, sets, ways) if per_way else (count, sets), dtype=np.int64),
        )
        # the cached PLRU tables live as long as the process
        touch, vict = _plru_tables(ways) if cfg.policy == "plru" else (None, None)
        self._levels.append((cfg, row, count, arrays))
        lv = _Level()
        lv.ways = ways
        lv.set_mask = sets - 1
        lv.tag_shift = sets.bit_length() - 1
        lv.policy = _POLICIES[cfg.policy]
        lv.levels = ways.bit_length() - 1 if cfg.policy == "plru" else 0
        lv.full_mask = (1 << ways) - 1 if cfg.policy == "nru" else 0
        lv.sets = sets
        lv.tags, lv.dirty, lv.nvalid, lv.meta = (a.ctypes.data for a in arrays)
        lv.clock = self._clock.ctypes.data + 8 * row
        lv.cnt = self._cnt.ctypes.data + 8 * _NCNT * row
        lv.plru_touch = _ptr(touch)
        lv.plru_victim = _ptr(vict)
        return lv, arrays

    def run(self, core: int, lines, writes, bypass_private: bool) -> CoreMemStats:
        """Play one chunk for ``core``; returns its (unscaled) stats."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        w8 = (
            None
            if writes is None
            else np.ascontiguousarray(writes, dtype=bool).view(np.uint8)
        )
        # C reads writes[i] for every line, and -1 marks an empty way
        if w8 is not None and len(w8) != len(lines):
            raise SimulationError(
                f"{len(lines)} lines but {len(w8)} write flags in one chunk"
            )
        if len(lines) and lines.min() < 0:
            raise SimulationError("line addresses must be non-negative")
        self._fn(
            self._ref,
            core,
            lines.ctypes.data,
            _ptr(w8),
            len(lines),
            1 if bypass_private else 0,
        )
        l1h, l2h, l3h, l3m, fetch, pff, wb_lines = self._out.tolist()
        return CoreMemStats(
            mem_accesses=len(lines),
            l1_hits=l1h,
            l2_hits=l2h,
            l3_hits=l3h,
            l3_misses=l3m,
            l3_fetches=fetch,
            prefetch_fills=pff,
            dram_writeback_lines=wb_lines,
        )

    def reset(self) -> None:
        """Empty every cache and forget owners, private-fill flags and
        prefetch streams (flush).  Counters, ``victim_tag`` and the
        prefetchers' issued/started totals are kept, as
        :meth:`SetAssocCache.flush` keeps its counters."""
        for cfg, row, count, (tags, dirty, nvalid, meta) in self._levels:
            tags.fill(-1)
            dirty.fill(0)
            nvalid.fill(0)
            if cfg.policy == "lru":
                # distinct initial stamps keep argmin deterministic before
                # a set fills; they sit below every real stamp (the clock
                # starts at ``ways``) and never pick a victim, because
                # eviction needs a full set, where every way was touched
                meta[...] = np.arange(cfg.ways, dtype=np.int64)
            else:
                meta.fill(0)
            self._clock[row : row + count] = cfg.ways
        self.owner.fill(-1)
        self.priv_filled.fill(0)
        self.pf_tab.fill(0)
        self.pf_meta[:, :2] = 0  # issued/started are lifetime counters

    def _state_arrays(self) -> list[np.ndarray]:
        """Every array the walk changes (``_out`` is per-call scratch)."""
        levels = [a for *_, arrays in self._levels for a in arrays]
        return levels + [
            self._cnt, self._clock, self.owner, self.priv_filled, self.pf_tab, self.pf_meta
        ]

    def snapshot(self) -> list[np.ndarray]:
        """Copies of the whole hierarchy's state arrays."""
        return [a.copy() for a in self._state_arrays()]

    def restore(self, state: list[np.ndarray]) -> None:
        """Copy a :meth:`snapshot` back into the live arrays.

        In place: the C struct and the :class:`WalkCache` views point at
        these arrays, so they must never be replaced.
        """
        for live, saved in zip(self._state_arrays(), state, strict=True):
            np.copyto(live, saved)

    def owner_map(self) -> dict[int, int]:
        """Resident L3 line -> owning core (the scalar engine's ``_owner``)."""
        l3 = self.l3
        tags = l3._tags.reshape(-1)
        slots = np.flatnonzero((self.owner >= 0) & (tags >= 0))
        lines = (tags[slots] << l3.tag_shift) | (slots // l3.ways)
        return dict(zip(lines.tolist(), self.owner[slots].tolist()))

    def sync_prefetcher(self, core: int, pf) -> None:
        """Load ``core``'s stream table into the Python prefetcher ``pf``."""
        used, head, issued, started = self.pf_meta[core].tolist()
        pf.load_table(self.pf_tab[core].tolist(), used, head)
        pf.issued = issued
        pf.streams_started = started


def walk_gap(config) -> str | None:
    """Why the C walk cannot run a machine built from ``config``, or None.

    Decided from the config before any cache is built: the hierarchy
    builds a :class:`HierWalk`, which owns the cache arrays, when this
    returns None, and the scalar caches otherwise.
    """
    if load() is None:
        return f"no C lowering: {unavailable_reason()}"
    for name, level in (("l1", config.l1), ("l2", config.l2), ("l3", config.l3)):
        if level.policy not in _POLICIES:
            return f"{name} uses {level.policy} replacement (the walk models lru, nru, plru)"
        if level.ways > MAX_WAYS:
            return f"{name} has {level.ways} ways (walk limit {MAX_WAYS})"
    if config.num_cores > _MAX_WALK_CORES:
        return f"{config.num_cores} cores (walk limit {_MAX_WALK_CORES})"
    return None
