"""Workload base class and address-space layout.

A workload is an infinite, deterministic generator of line addresses plus the
scalar timing parameters the core model needs (``cpi_base``, ``mem_fraction``,
``mlp``).  Termination is imposed from outside via a thread's instruction
limit, matching how the experiments run benchmarks "to completion".

Address spaces are disjoint by construction: every workload instance owns the
line-address range starting at :func:`instance_base`, and the Pirate lives in
its own range far above.  This is what lets the hierarchy's owner-based
back-invalidation be exact (``MachineConfig.private_data``).

Line granularity: the simulator streams *line* addresses, not word
addresses.  Code that walks an array touches each 64B line several times; the
``accesses_per_line`` parameter records how many architectural accesses each
emitted line address stands for, and the machine books the extras as L1 hits.
This keeps fetch/miss *ratios* (per access, §I-B) on the paper's scale while
simulating an order of magnitude fewer events.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..rng import make_rng

#: Line-address stride between workload instances: 2^32 lines = 256 TB of
#: address space each, so instances can never alias.
_INSTANCE_STRIDE = 1 << 32

#: Line-address base of the Pirate's working set (``repro.core.pirate``).
PIRATE_BASE = 1 << 40


def instance_base(instance_id: int) -> int:
    """Base line address of workload instance ``instance_id``."""
    if instance_id < 0:
        raise ConfigError("instance_id must be non-negative")
    return (instance_id + 1) * _INSTANCE_STRIDE


class Resumable:
    """A seeded stream whose position can be saved and resumed.

    The position is the generator's state, the scalar attributes named in
    ``_cursor`` and the positions of the sub-streams :meth:`_parts` lists.
    Arrays a stream only reads (chase orders, Zipf permutations) are fixed
    by its construction, so a stream built the same way and given a
    :meth:`snapshot` continues exactly where the snapshotted one stood.
    """

    #: scalar attributes the stream advances, besides its generator
    _cursor: tuple[str, ...] = ()

    def _parts(self) -> list["Resumable"]:
        """Sub-streams with positions of their own."""
        return []

    def snapshot(self) -> tuple:
        """The stream's position as plain data."""
        return (
            self._rng.bit_generator.state,
            [getattr(self, a) for a in self._cursor],
            [p.snapshot() for p in self._parts()],
        )

    def restore(self, state: tuple) -> None:
        """Move the stream to a position taken by :meth:`snapshot`."""
        rng, cursor, parts = state
        self._rng.bit_generator.state = rng
        for attr, value in zip(self._cursor, cursor):
            setattr(self, attr, value)
        for part, sub in zip(self._parts(), parts):
            part.restore(sub)


class Workload(Resumable):
    """Base class for all workloads (implements ``WorkloadLike``)."""

    def __init__(
        self,
        name: str,
        *,
        mem_fraction: float,
        cpi_base: float,
        mlp: float = 2.0,
        accesses_per_line: float = 1.0,
        write_fraction: float = 0.0,
        seed: int | None = None,
    ):
        if not 0.0 < mem_fraction <= 1.0:
            raise ConfigError(f"{name}: mem_fraction must be in (0, 1]")
        if cpi_base <= 0.0:
            raise ConfigError(f"{name}: cpi_base must be positive")
        if mlp <= 0.0:
            raise ConfigError(f"{name}: mlp must be positive")
        if accesses_per_line < 1.0:
            raise ConfigError(f"{name}: accesses_per_line must be >= 1")
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigError(f"{name}: write_fraction must be in [0, 1]")
        self.name = name
        self.mem_fraction = mem_fraction
        self.cpi_base = cpi_base
        self.mlp = mlp
        self.accesses_per_line = accesses_per_line
        self.write_fraction = write_fraction
        self.bypass_private = False
        self._seed = seed
        self._rng = make_rng(seed)

    # -- protocol ---------------------------------------------------------------

    def chunk(self, n_lines: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Next ``n_lines`` line addresses and an optional write mask."""
        lines = self._lines(n_lines)
        if self.write_fraction > 0.0:
            writes = self._rng.random(n_lines) < self.write_fraction
        else:
            writes = None
        return lines, writes

    def _lines(self, n_lines: int) -> np.ndarray:
        """Produce the next line addresses; subclasses implement this."""
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind the generator to its initial state."""
        self._rng = make_rng(self._seed)

    # -- introspection -------------------------------------------------------------

    def footprint_lines(self) -> int:
        """Total distinct lines this workload can touch (0 if unbounded)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
