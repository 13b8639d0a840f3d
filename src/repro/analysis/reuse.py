"""Reuse-distance (LRU stack-distance) analysis of address traces.

The paper's companion modelling work (its ref [6], the StatCache/StatStack
line) predicts cache behaviour from reuse distances instead of simulation.
This module provides the exact deterministic variant as an analysis tool and
as a cross-check on the trace-driven simulator:

* :func:`reuse_distances` — exact LRU stack distances for every access,
  computed fully in numpy (previous-occurrence pass + a merge-sort dominance
  counter; O(N log N)); :func:`reuse_distances_scalar` keeps the classic
  Bennett-Kruskal Fenwick-tree loop as the cross-check reference,
* :func:`miss_ratio_from_histogram` — the fully-associative-LRU miss ratio
  at any capacity is the tail mass of the histogram (accesses whose reuse
  distance is at least the capacity) plus the cold misses,
* :class:`ReuseProfile` — bundles the histogram with capacity sweeps, a
  working-set-size estimate (the knee the paper's Fig. 6 curves visualize)
  and the per-line access counts the surrogate engine's Che cross-check
  reads (:mod:`repro.surrogate`).

These predictions are an *upper bound* on set-associative LRU performance
(Mattson's inclusion property); tests compare them against the reference
simulator on random-access traces where associativity effects are small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TraceError
from ..tracing.trace import AddressTrace
from ..units import LINE_SIZE, MB

#: histogram bucket for cold (first-touch) accesses
COLD = -1


def reuse_distances_scalar(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance per access (-1 marks cold misses).

    The distance of an access is the number of *distinct* lines referenced
    since the previous access to the same line.  Computed with a Fenwick
    tree holding one bit per currently-"live" last access, so each access
    costs O(log N).  This is the interpretable reference implementation;
    :func:`reuse_distances` is the vectorized equivalent (bit-identical,
    property-tested) used on real traces.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if n == 0:
        raise TraceError("empty trace")
    tree = [0] * (n + 1)

    def add(i: int, v: int) -> None:
        i += 1
        while i <= n:
            tree[i] += v
            i += i & (-i)

    def prefix(i: int) -> int:
        # sum of tree[0..i] inclusive
        i += 1
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    last: dict[int, int] = {}
    out = np.empty(n, dtype=np.int64)
    lines_list = lines.tolist()
    for t, line in enumerate(lines_list):
        prev = last.get(line)
        if prev is None:
            out[t] = COLD
        else:
            # distinct lines touched in (prev, t) = live markers after prev
            out[t] = prefix(t - 1) - prefix(prev)
            add(prev, -1)
        add(t, 1)
        last[line] = t
    return out


def _prev_occurrence(lines: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same line (-1 for first touch)."""
    n = lines.size
    order = np.argsort(lines, kind="stable")
    grouped = lines[order]
    prev = np.full(n, COLD, dtype=np.int64)
    same = np.nonzero(grouped[1:] == grouped[:-1])[0] + 1
    prev[order[same]] = order[same - 1]
    return prev


def _count_larger_before(prev: np.ndarray) -> np.ndarray:
    """dup[t] = #{j < t : prev[j] > prev[t]}, via bottom-up merge counting.

    Each (j, t) pair with j < t meets exactly once at the level where j sits
    in the left half and t in the right half of the same block, so summing
    per-level dominance counts gives the exact pair count.  The array is
    padded to a power of two with -1, which is never strictly greater than
    any query, so the padding contributes nothing.
    """
    n = prev.size
    size = 1
    while size < n:
        size *= 2
    pad = np.full(size, COLD, dtype=np.int64)
    pad[:n] = prev
    counts = np.zeros(size, dtype=np.int64)
    band = size + 2  # keys per block stay inside a disjoint band
    block = 1
    while block < size:
        nblocks = size // (2 * block)
        pairs = pad.reshape(nblocks, 2, block)
        left = np.sort(pairs[:, 0, :], axis=1)
        rows = np.arange(nblocks, dtype=np.int64)[:, None]
        # one flat searchsorted over all blocks: offsetting each row's keys
        # into its own band keeps the concatenation globally sorted
        lkeys = (left + 1 + rows * band).ravel()
        qkeys = (pairs[:, 1, :] + 1 + rows * band).ravel()
        pos = np.searchsorted(lkeys, qkeys, side="right")
        count_le = pos - np.repeat(rows.ravel() * block, block)
        counts.reshape(nblocks, 2, block)[:, 1, :] += block - count_le.reshape(
            nblocks, block
        )
        block *= 2
    return counts[:n]


def reuse_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance per access (-1 marks cold misses), vectorized.

    Identity: with ``prev[t]`` the previous access to the same line, every
    access ``j <= prev[t]`` satisfies ``prev[j] < j <= prev[t]``, so

        d(t) = (t - prev[t] - 1) - #{j < t : prev[j] > prev[t]}

    counts exactly the accesses in ``(prev[t], t)`` whose line was untouched
    since ``prev[t]`` — the distinct lines between the reuse pair.  The
    dominance count runs as O(N log N) numpy merge passes; bit-identical to
    :func:`reuse_distances_scalar` (property-tested).
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if n == 0:
        raise TraceError("empty trace")
    prev = _prev_occurrence(lines)
    dup = _count_larger_before(prev)
    out = np.arange(n, dtype=np.int64) - prev - 1 - dup
    out[prev == COLD] = COLD
    return out


def miss_ratio_from_histogram(
    distances: np.ndarray,
    cold_accesses: int,
    total_accesses: int,
    capacity_lines: int,
    *,
    include_cold: bool = True,
    accesses_per_line: float = 1.0,
) -> float:
    """Fully-associative LRU miss ratio at ``capacity_lines`` from a sorted
    reuse-distance histogram (the warm ``distances`` plus ``cold_accesses``
    first touches out of ``total_accesses``).

    Degenerate capacities return their exact limits: zero lines miss every
    access (warm tail = the whole histogram), and a capacity deeper than the
    largest reuse distance leaves only the cold misses.  Negative capacity
    is a caller error.
    """
    if capacity_lines < 0:
        raise TraceError("capacity must be non-negative")
    if total_accesses <= 0:
        raise TraceError("histogram covers no accesses")
    distances = np.asarray(distances)
    cold = cold_accesses if include_cold else 0
    if capacity_lines == 0:
        misses = int(distances.size) + cold
    elif distances.size == 0 or capacity_lines > int(distances[-1]):
        misses = cold
    else:
        tail = distances.size - np.searchsorted(distances, capacity_lines, side="left")
        misses = int(tail) + cold
    return misses / total_accesses / accesses_per_line


@dataclass
class ReuseProfile:
    """Reuse-distance histogram of one trace, with capacity sweeps."""

    benchmark: str
    #: sorted reuse distances of non-cold accesses
    distances: np.ndarray
    cold_accesses: int
    total_accesses: int
    #: architectural accesses per traced line (for ratio scaling)
    accesses_per_line: float = 1.0
    #: accesses per distinct line of the histogram's window (Che's input)
    line_counts: np.ndarray | None = field(repr=False, default=None)

    @property
    def cold_fraction(self) -> float:
        return self.cold_accesses / self.total_accesses

    def miss_ratio_at_lines(self, capacity_lines: int, *, include_cold: bool = True) -> float:
        """Fully-associative LRU miss ratio at a capacity in lines."""
        return miss_ratio_from_histogram(
            self.distances,
            self.cold_accesses,
            self.total_accesses,
            capacity_lines,
            include_cold=include_cold,
            accesses_per_line=self.accesses_per_line,
        )

    def miss_ratio_curve(
        self, sizes_mb: list[float], *, include_cold: bool = False
    ) -> list[tuple[float, float]]:
        """(size_mb, predicted miss ratio) pairs, largest cache last."""
        out = []
        for size in sorted(sizes_mb):
            capacity = int(size * MB / LINE_SIZE)
            out.append((size, self.miss_ratio_at_lines(capacity, include_cold=include_cold)))
        return out

    def working_set_mb(self, miss_threshold: float = 0.01) -> float:
        """Smallest capacity whose predicted (warm) miss ratio drops below
        ``miss_threshold`` — a working-set-size estimate."""
        if self.distances.size == 0:
            return 0.0
        lo, hi = 0, int(self.distances.max()) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.miss_ratio_at_lines(mid, include_cold=False) <= miss_threshold:
                hi = mid
            else:
                lo = mid + 1
        return lo * LINE_SIZE / MB

    def format_table(self, sizes_mb: list[float]) -> str:
        rows = [f"# reuse-distance model: {self.benchmark} "
                f"(cold {self.cold_fraction * 100:.2f}%)"]
        rows.append(f"{'MB':>6} {'predicted MR%':>14}")
        for size, mr in self.miss_ratio_curve(sizes_mb):
            rows.append(f"{size:6.1f} {mr * 100:14.4f}")
        return "\n".join(rows)


def reuse_profile(trace: AddressTrace, *, skip_fraction: float = 0.0) -> ReuseProfile:
    """Compute the exact reuse profile of a trace.

    ``skip_fraction`` excludes the leading portion of the trace from the
    histogram (distances are still computed against the full history), the
    model-side mirror of the simulator's warm-up window: short traces
    otherwise over-weight the start-up phase, where few distinct lines exist
    and distances are artificially small.
    """
    if not 0.0 <= skip_fraction < 1.0:
        raise TraceError("skip_fraction must be in [0, 1)")
    lines = np.asarray(trace.lines, dtype=np.int64)
    dists = reuse_distances(lines)
    start = int(len(dists) * skip_fraction)
    tail = dists[start:]
    warm = np.sort(tail[tail >= 0])
    cold = int((tail == COLD).sum())
    return ReuseProfile(
        benchmark=trace.benchmark,
        distances=warm,
        cold_accesses=cold,
        total_accesses=len(tail),
        accesses_per_line=trace.accesses_per_line,
        line_counts=np.unique(lines[start:], return_counts=True)[1],
    )
