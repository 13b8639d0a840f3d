"""Deterministic random-number helpers.

Every stochastic component (workload generators, replacement tie-breaks) takes
an explicit seed or ``numpy.random.Generator``.  Experiments derive all their
generators from a single root seed through :func:`spawn`, so a full paper
reproduction is bit-reproducible end to end.
"""

from __future__ import annotations

import numpy as np

#: Root seed used by the experiment drivers unless overridden.
DEFAULT_SEED: int = 0xCACE


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for the library default seed.  Experiments should prefer passing
    integers so their provenance is visible in logs.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Uses the generator's bit-generator seed sequence so children are
    statistically independent and the derivation is stable across calls with
    the same parent state.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def stable_seed(*parts: int | str) -> int:
    """Hash a tuple of identifiers into a 63-bit seed.

    Used to give each (experiment, benchmark, cache size) combination its own
    reproducible stream without threading generators through every call.
    """
    acc = 0xCBF29CE484222325  # FNV-1a 64-bit offset basis
    for part in parts:
        data = str(part).encode()
        for byte in data:
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        acc ^= 0xFF
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF

