"""Primitive address patterns.

Each pattern is a deterministic, resettable generator of line *offsets*
within a region of ``region_lines`` lines starting at ``base_line``.
Patterns are the leaves composed by :class:`~repro.workloads.mixture.
MixtureWorkload`; they can also be used as standalone workload streams.

All generators are vectorized: a chunk of ``n`` offsets costs O(n) numpy
work, not n Python iterations.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ConfigError
from ..rng import make_rng


class Pattern:
    """Base class: a stream of line addresses inside one region."""

    def __init__(self, base_line: int, region_lines: int, seed: int | None = None):
        if region_lines <= 0:
            raise ConfigError("region_lines must be positive")
        if base_line < 0:
            raise ConfigError("base_line must be non-negative")
        self.base_line = base_line
        self.region_lines = region_lines
        self._seed = seed
        self._rng = make_rng(seed)

    def lines(self, n: int) -> np.ndarray:
        """Next ``n`` absolute line addresses (int64)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind to the initial state."""
        self._rng = make_rng(self._seed)

    def footprint_lines(self) -> int:
        """Distinct lines this pattern touches."""
        return self.region_lines


class SequentialPattern(Pattern):
    """Cyclic unit-stride sweep, optionally broken into segments.

    With ``segment_lines`` set, the stream jumps to a random segment-aligned
    position every ``segment_lines`` lines.  Real stream prefetchers stop at
    page boundaries; segments model that plus multi-array interleaving, and
    directly control the fetch-to-miss ratio: with a prefetch trigger of
    ``t``, each segment costs ``t`` demand misses out of ``segment_lines``
    fetches (this is how the lbm stand-in gets its 8x gap, §IV).
    """

    def __init__(
        self,
        base_line: int,
        region_lines: int,
        *,
        segment_lines: int | None = None,
        seed: int | None = None,
    ):
        super().__init__(base_line, region_lines, seed)
        if segment_lines is not None:
            if segment_lines <= 0 or segment_lines > region_lines:
                raise ConfigError("segment_lines must be in [1, region_lines]")
        self.segment_lines = segment_lines
        self._pos = 0
        self._seg_left = segment_lines if segment_lines else 0

    def lines(self, n: int) -> np.ndarray:
        base = self.base_line
        region = self.region_lines
        pos = self._pos
        if self.segment_lines is None:
            self._pos = (pos + n) % region
            if pos + n <= region:
                return np.arange(pos + base, pos + base + n, dtype=np.int64)
            return (pos + np.arange(n, dtype=np.int64)) % region + base
        # segmented: finish the current run, then jump to a random aligned
        # segment per exhausted run.  The number of jumps is known up front,
        # so one sized draw replaces one scalar draw per jump and consumes
        # the generator identically (DESIGN §3, "Stream generation").
        seg = self.segment_lines
        first = min(n, self._seg_left)
        m = -(-(n - first) // seg)
        if m == 0:
            self._pos = (pos + first) % region
            self._seg_left -= first
            return np.arange(pos + base, pos + base + first, dtype=np.int64)
        nseg = max(region // seg, 1)
        starts = self._rng.integers(0, nseg, size=m) * seg
        last = n - first - (m - 1) * seg
        self._pos = (int(starts[-1]) + last) % region
        self._seg_left = seg - last
        # a run never crosses the region end (aligned starts, seg <= region),
        # so line i of the chunk is i plus its run's start-minus-offset
        shifts = np.empty(m + 1, dtype=np.int64)
        shifts[0] = pos + base
        shifts[1:] = starts + (base - first) - seg * np.arange(m, dtype=np.int64)
        runs = np.full(m + 1, seg, dtype=np.int64)
        runs[0] = first
        runs[-1] = last
        return np.repeat(shifts, runs) + np.arange(n, dtype=np.int64)

    def reset(self) -> None:
        super().reset()
        self._pos = 0
        self._seg_left = self.segment_lines if self.segment_lines else 0


class RandomPattern(Pattern):
    """Uniform random line accesses over the region."""

    def lines(self, n: int) -> np.ndarray:
        return self._rng.integers(0, self.region_lines, size=n, dtype=np.int64) + self.base_line


class StridedPattern(Pattern):
    """Cyclic access with a fixed stride in lines (> 1 defeats the stream
    prefetcher while preserving regularity)."""

    def __init__(
        self,
        base_line: int,
        region_lines: int,
        *,
        stride_lines: int = 2,
        seed: int | None = None,
    ):
        super().__init__(base_line, region_lines, seed)
        if stride_lines <= 0:
            raise ConfigError("stride_lines must be positive")
        self.stride_lines = stride_lines
        self._pos = 0

    def lines(self, n: int) -> np.ndarray:
        region = self.region_lines
        pos = self._pos
        stride = self.stride_lines
        self._pos = (pos + n * stride) % region
        if pos + (n - 1) * stride < region:
            start = pos + self.base_line
            return np.arange(start, start + n * stride, stride, dtype=np.int64)
        idx = (pos + np.arange(n, dtype=np.int64) * stride) % region
        return idx + self.base_line

    def footprint_lines(self) -> int:
        # a stride that divides the region size only ever revisits a subset
        g = np.gcd(self.stride_lines, self.region_lines)
        return self.region_lines // int(g)

    def reset(self) -> None:
        super().reset()
        self._pos = 0


@functools.lru_cache(maxsize=2)
def _chase_order(seed: int | None, region_lines: int) -> np.ndarray:
    """The chase permutation for an integer (or default) seed, read-only.

    Building a workload again (every measurement of a sweep or validation
    does) then costs no redraw.  Two entries cover the usual pattern of
    alternating between a couple of workloads; more would only hold on
    to region-sized arrays nobody reads again.
    """
    order = np.asarray(make_rng(seed).permutation(region_lines), dtype=np.int64)
    order.flags.writeable = False
    return order


class PointerChasePattern(Pattern):
    """Walk of a random Hamiltonian cycle over the region.

    Models linked-data traversal (mcf, omnetpp): every line is visited once
    per lap like a sweep, but the address sequence is de-correlated so the
    stream prefetcher cannot help, and callers should pair it with a low
    ``mlp`` since each load depends on the previous one.

    The visiting order is ``make_rng(seed).permutation(region_lines)``, a
    pure function of ``(seed, region_lines)``: instances built with the same
    integer seed share one read-only array from a small module-level cache,
    and :meth:`reset` keeps it.  A seed passed as a ``Generator`` has
    consumable state instead, so the order is drawn from it at construction
    and redrawn at every reset, uncached.
    """

    def __init__(
        self,
        base_line: int,
        region_lines: int,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__(base_line, region_lines, seed)
        self._order = self._draw_order()
        self._pos = 0

    def _draw_order(self) -> np.ndarray:
        if isinstance(self._seed, np.random.Generator):
            return np.asarray(self._rng.permutation(self.region_lines), dtype=np.int64)
        return _chase_order(self._seed, self.region_lines)

    def lines(self, n: int) -> np.ndarray:
        region = self.region_lines
        pos = self._pos
        self._pos = (pos + n) % region
        if pos + n <= region:
            return self._order[pos : pos + n] + self.base_line
        idx = (pos + np.arange(n, dtype=np.int64)) % region
        return self._order[idx] + self.base_line

    def reset(self) -> None:
        super().reset()
        if isinstance(self._seed, np.random.Generator):
            self._order = self._draw_order()
        self._pos = 0
