"""Per-core hardware stream prefetcher model.

The paper (§I-B) distinguishes *fetches* (lines brought from memory including
prefetches) from *misses* (demand misses) and shows benchmarks, e.g. 470.lbm,
with an 8x fetch-to-miss gap.  This module models the mechanism that creates
that gap: an ascending unit-stride stream detector that observes every demand
access reaching the L3 (i.e. every L2 miss, including ones that hit in L3 on
previously prefetched lines — real prefetchers train below the level they fill)
and, once a stream is confirmed, keeps a prefetch frontier ``degree`` lines
ahead of the demand stream.

The machine disables the prefetcher via ``MachineConfig.prefetch_enabled``
(used by the Fig. 9 experiment and the reference-simulator methodology in
§III-B1, where the authors disabled prefetching for validation).
"""

from __future__ import annotations


class _Stream:
    """One tracked stream: next expected demand line and prefetch frontier.

    A plain ``__slots__`` class mutated in place — stream entries are recycled
    on table eviction so the (hot) allocate path performs no allocation in
    steady state.
    """

    __slots__ = ("next_line", "count", "frontier")

    def __init__(self, next_line: int, count: int, frontier: int):
        self.next_line = next_line
        self.count = count
        self.frontier = frontier


class StreamPrefetcher:
    """Ascending unit-stride stream detector with a small stream table.

    Parameters
    ----------
    trigger:
        Consecutive +1-line demand accesses required before prefetching.
    degree:
        How far (in lines) the prefetch frontier runs ahead of demand.
    table_size:
        Number of concurrently tracked streams (FIFO replacement).
    """

    def __init__(self, trigger: int = 2, degree: int = 4, table_size: int = 16):
        if trigger < 1:
            raise ValueError("trigger must be >= 1")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if table_size < 1:
            raise ValueError("table_size must be >= 1")
        self.trigger = trigger
        self.degree = degree
        self.table_size = table_size
        #: streams keyed by the line address that would continue them.
        self._by_next: dict[int, _Stream] = {}
        #: insertion order for FIFO replacement (stream identity = object).
        self._order: list[_Stream] = []
        self.issued = 0
        self.streams_started = 0

    def observe(self, line: int) -> list[int]:
        """Feed one demand access; return line addresses to prefetch now."""
        stream = self._by_next.pop(line, None)
        if stream is None:
            self._allocate(line)
            return []
        stream.next_line = line + 1
        stream.count += 1
        self._by_next[stream.next_line] = stream
        if stream.count < self.trigger:
            return []
        target = line + self.degree
        if stream.frontier < line:
            stream.frontier = line
        if target <= stream.frontier:
            return []
        out = list(range(stream.frontier + 1, target + 1))
        stream.frontier = target
        self.issued += len(out)
        return out

    def _allocate(self, line: int) -> None:
        if len(self._order) >= self.table_size:
            # recycle the oldest entry in place (no allocation)
            stream = self._order.pop(0)
            # the stream may have been displaced from _by_next by a collision
            if self._by_next.get(stream.next_line) is stream:
                del self._by_next[stream.next_line]
            stream.next_line = line + 1
            stream.count = 1
            stream.frontier = line
        else:
            stream = _Stream(line + 1, 1, line)
        self._order.append(stream)
        self._by_next[stream.next_line] = stream
        self.streams_started += 1

    def reset(self) -> None:
        """Forget all streams (used across measurement-interval boundaries)."""
        self._by_next.clear()
        self._order.clear()

    def load_table(self, rows: list[list[int]], used: int, head: int) -> None:
        """Rebuild the streams from the array form the C walk keeps.

        ``rows[s]`` is ``(next_line, count, frontier, live)`` of stream
        slot ``s``: slots are allocated in order until ``used`` reaches the
        table size, after which the oldest (``head``) is recycled, so
        :attr:`_order` is the ring starting at ``head``.  ``live`` marks the
        streams still reachable in :attr:`_by_next` (a stream displaced by
        a key collision keeps its FIFO slot but leaves the dict).
        """
        streams = [_Stream(nxt, count, frontier) for nxt, count, frontier, _ in rows]
        self._order = [streams[(head + i) % len(rows)] for i in range(used)]
        self._by_next = {
            st.next_line: st for st, row in zip(streams, rows) if row[3]
        }
