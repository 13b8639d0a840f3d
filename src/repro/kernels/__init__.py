"""The fast simulation engine: the C hierarchy walk.

The scalar cache models in :mod:`repro.caches.setassoc` are the innermost
loop of every experiment and the oracle of the whole package.  Kernel
mode ``auto`` (the default) replaces their per-access interpreter loop
with one in-order C walk of the hierarchy, **bit-identical** to the scalar
loop — every counter, every eviction, every replacement-state transition
(``tests/test_hierwalk.py`` fuzzes whole machines against
``kernel="scalar"``; the golden fixtures pin end-to-end results).

:mod:`repro.kernels.cext` holds the walk, compiled with the system
compiler at first use, and :func:`~repro.kernels.cext.walk_gap`, the one
predicate that says whether the walk covers a machine.
:class:`~repro.kernels.cext.HierWalk` owns every cache's tags, dirty
bits, valid counts, replacement state and counters as numpy arrays the C
code runs on in place; Python reads them through read-only
:class:`~repro.kernels.cext.WalkCache` views.  On a walked machine
:meth:`~repro.hardware.machine.Machine.run` also runs its quanta in C
(:class:`~repro.kernels.cext.QuantumLoop`), bit-identical to the Python
step loop (``tests/test_quantum_loop.py``).

:class:`repro.caches.hierarchy.CacheHierarchy` asks the predicate once,
before it builds any cache: covered machines get a ``HierWalk`` and its
views as their levels; the rest (no compiler, ``REPRO_CEXT=0``, random
replacement, more than 63 ways, more than 127 cores) get the scalar
caches ``kernel="scalar"`` builds.
"""

from . import cext

__all__ = ["cext"]
