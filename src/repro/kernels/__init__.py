"""Vectorized cache-simulation kernels (structure-of-arrays fast paths).

The scalar cache models in :mod:`repro.caches.setassoc` are the innermost
loop of every experiment; this package replaces the interpreter-bound per
-access loops with numpy batch kernels while keeping the results
**bit-identical** — every counter, every eviction, every replacement-state
transition matches the scalar path exactly (enforced by the property suite
in ``tests/test_kernels.py`` and the golden fixtures).

Three layers:

* :mod:`repro.kernels.veccache` — drop-in cache classes whose replacement
  metadata lives in numpy arrays and whose tag store keeps a 2-D int64
  mirror, so batch probes/fills are single vector operations while the
  scalar int-code protocol keeps working access-by-access,
* :mod:`repro.kernels.l3kernel` — the batched L3-only kernel used for the
  Pirate's private-level bypass (round decomposition by set, an analytic
  resident-set shortcut for the steady-state sweep, a spin shortcut for the
  idle Pirate),
* :mod:`repro.kernels.pipekernel` — the pipelined full-hierarchy kernel:
  round-decomposed L1 and L2 stages feeding a sequential L3 stage, with a
  snapshot/rollback safety net for the one upward feedback edge
  (inclusive-L3 back-invalidation).

Two further layers batch across *configurations* and lower to C:

* :mod:`repro.kernels.batchkernel` — the size-stacked L3 bank: every
  pirate size of a sweep simulated in one pass over the shared stream,
  with the round decomposition computed once for the whole batch,
* :mod:`repro.kernels.cext` — C lowerings compiled with the system
  compiler at first use (pure-Python fallback otherwise): the in-order L3
  loop, used by the bank and by kernel mode ``batch`` for the sequential
  paths the vector kernels bail out of, and the in-order walk of the
  whole hierarchy (:class:`~repro.kernels.cext.HierWalk`) that kernel
  mode ``auto`` runs every chunk through.

Selection is per chunk via the dispatcher in
:class:`repro.caches.hierarchy.CacheHierarchy` and is controlled by
``MachineConfig.kernel`` (``auto``/``scalar``/``vector``/``batch``); set
sampling (``MachineConfig.sample_sets``) is a separate, *statistical* mode
that trades exactness for speed and is validated by ``repro validate``.
"""

from . import cext
from .batchkernel import BatchedL3Bank
from .l3kernel import ChunkRounds, run_l3_chunk, run_l3_chunk_cext
from .pipekernel import run_full_chunk
from .veccache import (
    VecLRUCache,
    VecNRUCache,
    VecPLRUCache,
    VecSetAssocCache,
    make_vec_cache,
)

__all__ = [
    "BatchedL3Bank",
    "ChunkRounds",
    "cext",
    "run_l3_chunk_cext",
    "VecLRUCache",
    "VecNRUCache",
    "VecPLRUCache",
    "VecSetAssocCache",
    "make_vec_cache",
    "run_full_chunk",
    "run_l3_chunk",
]
