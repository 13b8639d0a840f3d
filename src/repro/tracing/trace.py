"""Compact address-trace container.

A trace is the unit of exchange between the tracer (Pin stand-in) and the
reference cache simulator: line addresses, an optional write mask, and the
instruction markers it was captured between, so Pirate measurements can be
aligned to the exact same window (§III-B1: "we make sure to attach and
detach the Pirate at the exact same instructions at which we started and
stopped tracing").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import TraceError
from ..workloads.tracefile import open_trace, write_trace


@dataclass
class AddressTrace:
    """A captured sequence of line-granularity memory references."""

    benchmark: str
    #: line addresses in access order
    lines: np.ndarray
    #: optional parallel write mask
    writes: np.ndarray | None = None
    #: Target instruction count at capture start/stop (the markers)
    start_marker: float = 0.0
    stop_marker: float = 0.0
    #: architectural accesses each line stands for (workload's value)
    accesses_per_line: float = 1.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lines = np.asarray(self.lines, dtype=np.int64)
        if self.lines.ndim != 1 or len(self.lines) == 0:
            raise TraceError(f"{self.benchmark}: empty or non-1D trace")
        if self.writes is not None:
            self.writes = np.asarray(self.writes, dtype=bool)
            if self.writes.shape != self.lines.shape:
                raise TraceError(f"{self.benchmark}: write mask shape mismatch")

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def mem_accesses(self) -> float:
        """Architectural accesses represented (the fetch-ratio denominator)."""
        return len(self.lines) * self.accesses_per_line

    def footprint_lines(self) -> int:
        """Distinct lines touched."""
        return int(np.unique(self.lines).size)

    def slice(self, start: int, stop: int) -> "AddressTrace":
        """Sub-trace of access indices ``[start, stop)``."""
        if not 0 <= start < stop <= len(self.lines):
            raise TraceError(f"bad slice [{start}, {stop}) of {len(self.lines)}")
        return AddressTrace(
            benchmark=self.benchmark,
            lines=self.lines[start:stop],
            writes=None if self.writes is None else self.writes[start:stop],
            start_marker=self.start_marker,
            stop_marker=self.stop_marker,
            accesses_per_line=self.accesses_per_line,
            meta=dict(self.meta),
        )

    def save(self, path: str | Path) -> None:
        """Persist the trace as a checksummed RPAT file.

        Captured traces are the expensive artifact of the §III-B workflow
        (the paper's are ~1 billion references); saving them lets reference
        sweeps be re-run without re-tracing.  The file is the replayer's
        format (:func:`~repro.workloads.tracefile.write_trace`); the
        markers, ``accesses_per_line``, benchmark and ``meta`` ride in its
        JSON metadata.
        """
        write_trace(
            path,
            self.lines,
            writes=self.writes,
            meta={
                "benchmark": self.benchmark,
                "start_marker": self.start_marker,
                "stop_marker": self.stop_marker,
                "accesses_per_line": self.accesses_per_line,
                "meta": self.meta,
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "AddressTrace":
        """Load a trace saved by :meth:`save`.

        A damaged file, or an RPAT file :meth:`save` did not write, raises
        one :class:`~repro.errors.TraceError`.
        """
        tf = open_trace(path)
        try:
            return cls(
                benchmark=tf.meta["benchmark"],
                lines=np.array(tf.lines),
                writes=tf.writes,
                start_marker=tf.meta["start_marker"],
                stop_marker=tf.meta["stop_marker"],
                accesses_per_line=tf.meta["accesses_per_line"],
                meta=tf.meta["meta"],
            )
        except KeyError as e:
            raise TraceError(
                f"{path}: not an address trace (no {e.args[0]!r} in its metadata)"
            ) from None

    def concat(self, other: "AddressTrace") -> "AddressTrace":
        """Concatenate two traces of the same benchmark."""
        if other.benchmark != self.benchmark:
            raise TraceError("cannot concatenate traces of different benchmarks")
        if (self.writes is None) != (other.writes is None):
            raise TraceError("cannot concatenate traces with mismatched write masks")
        return AddressTrace(
            benchmark=self.benchmark,
            lines=np.concatenate([self.lines, other.lines]),
            writes=None
            if self.writes is None
            else np.concatenate([self.writes, other.writes]),
            start_marker=self.start_marker,
            stop_marker=other.stop_marker,
            accesses_per_line=self.accesses_per_line,
            meta=dict(self.meta),
        )
