"""Mixture workloads: weighted interleavings of primitive patterns.

A benchmark is modelled as a set of memory regions, each accessed with its
own pattern and relative frequency.  The per-access interleaving is drawn
i.i.d. from the component weights, which yields a smooth, phase-free stream;
:mod:`repro.workloads.phased` composes mixtures into phases when needed.

The shape of the resulting fetch-ratio-vs-cache-size curve follows from the
component footprints: a component of footprint ``F`` contributes misses once
the available cache drops below (roughly) ``F`` plus the hot footprints of
more frequently accessed components — so choosing a spread of region sizes
and weights sculpts the knees seen in the paper's Fig. 6/8 curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .base import Workload
from .patterns import Pattern


@dataclass
class MixtureComponent:
    """One region of a mixture: a pattern and its access weight."""

    pattern: Pattern
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError("component weight must be positive")


class MixtureWorkload(Workload):
    """Weighted interleaving of patterns over disjoint regions."""

    def __init__(
        self,
        name: str,
        components: list[MixtureComponent],
        *,
        mem_fraction: float,
        cpi_base: float,
        mlp: float = 2.0,
        accesses_per_line: float = 1.0,
        write_fraction: float = 0.0,
        seed: int | None = None,
    ):
        super().__init__(
            name,
            mem_fraction=mem_fraction,
            cpi_base=cpi_base,
            mlp=mlp,
            accesses_per_line=accesses_per_line,
            write_fraction=write_fraction,
            seed=seed,
        )
        if not components:
            raise ConfigError(f"{name}: mixture needs at least one component")
        self.components = components
        w = np.array([c.weight for c in components], dtype=np.float64)
        # Generator.choice(k, p=w / w.sum()) picks cdf.searchsorted(u,
        # side="right") for u = random(n), with this same cdf; _lines
        # computes that count of cdf entries <= u directly (DESIGN §3)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf[:-1].tolist()

    def _lines(self, n_lines: int) -> np.ndarray:
        if not self._cdf:
            return self.components[0].pattern.lines(n_lines)
        u = self._rng.random(n_lines)
        choice = (u >= self._cdf[0]).view(np.uint8)
        for edge in self._cdf[1:]:
            choice += u >= edge
        del u  # free the draws before the components allocate their lines
        counts = np.bincount(choice, minlength=len(self.components)).tolist()
        # the positions that chose component c, in order, are one slice of
        # the stable (radix) sort; fill them with c's next lines
        order = np.argsort(choice, kind="stable")
        out = np.empty(n_lines, dtype=np.int64)
        start = 0
        for comp, cnt in zip(self.components, counts):
            if cnt:
                out[order[start : start + cnt]] = comp.pattern.lines(cnt)
                start += cnt
        return out

    def _parts(self) -> list[Pattern]:
        return [c.pattern for c in self.components]

    def footprint_lines(self) -> int:
        return sum(c.pattern.footprint_lines() for c in self.components)

    def reset(self) -> None:
        super().reset()
        for c in self.components:
            c.pattern.reset()
