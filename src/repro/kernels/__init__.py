"""The fast simulation engine: the C hierarchy walk and the caches it runs on.

The scalar cache models in :mod:`repro.caches.setassoc` are the innermost
loop of every experiment and the oracle of the whole package.  Kernel
mode ``auto`` (the default) replaces their per-access interpreter loop
with one in-order C walk of the hierarchy, **bit-identical** to the scalar
loop — every counter, every eviction, every replacement-state transition
(``tests/test_hierwalk.py`` fuzzes whole machines against
``kernel="scalar"``; the golden fixtures pin end-to-end results).

Two layers:

* :mod:`repro.kernels.veccache` — cache classes whose tags, dirty bits
  and replacement metadata live in numpy arrays the walk reads and writes
  in place, while the scalar int-code protocol keeps working
  access-by-access for Python readers,
* :mod:`repro.kernels.cext` — the walk itself, compiled with the system
  compiler at first use, plus :func:`~repro.kernels.cext.walk_gap`, the
  one predicate that says whether the walk covers a machine.

:class:`repro.caches.hierarchy.CacheHierarchy` asks that predicate once,
before it builds any cache: covered machines get ``Vec*Cache`` levels and
a :class:`~repro.kernels.cext.HierWalk`; the rest (no compiler,
``REPRO_CEXT=0``, random replacement, more than 63 ways, more than 127
cores) get the scalar caches ``kernel="scalar"`` builds.
"""

from . import cext
from .veccache import (
    VecLRUCache,
    VecNRUCache,
    VecPLRUCache,
    VecSetAssocCache,
    make_vec_cache,
    make_vec_caches,
)

__all__ = [
    "cext",
    "VecLRUCache",
    "VecNRUCache",
    "VecPLRUCache",
    "VecSetAssocCache",
    "make_vec_cache",
    "make_vec_caches",
]
