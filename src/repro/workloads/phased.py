"""Phased workloads: alternate between sub-workloads over time.

403.gcc is the paper's problem child: its phases are short enough that a 1B-
instruction measurement interval straddles them, inflating the dynamic-
pirating CPI error to 23% (Table III).  :class:`PhasedWorkload` reproduces
that structure by cycling through sub-workloads with per-phase instruction
budgets.

Phase position is tracked in *emitted lines* converted through each phase's
access density, so a thread's instruction accounting and the phase schedule
agree without the machine knowing about phases.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import Workload


class PhasedWorkload(Workload):
    """Cycle through ``(workload, instructions)`` phases forever.

    Timing parameters (``cpi_base``, ``mem_fraction``, ``mlp``, ...) must be
    identical across phases — the phases differ in *where* they access memory,
    which is what drives their differing cache behaviour; keeping the scalar
    parameters uniform lets the machine treat the thread as one workload.
    """

    _cursor = ("_phase_idx", "_lines_left")

    def __init__(
        self,
        name: str,
        phases: list[tuple[Workload, float]],
        *,
        seed: int | None = None,
    ):
        if not phases:
            raise ConfigError(f"{name}: need at least one phase")
        first = phases[0][0]
        for wl, instr in phases:
            if instr <= 0:
                raise ConfigError(f"{name}: phase lengths must be positive")
            if (
                wl.mem_fraction != first.mem_fraction
                or wl.cpi_base != first.cpi_base
                or wl.mlp != first.mlp
                or wl.accesses_per_line != first.accesses_per_line
                or wl.write_fraction != first.write_fraction
            ):
                raise ConfigError(
                    f"{name}: all phases must share scalar timing parameters"
                )
        super().__init__(
            name,
            mem_fraction=first.mem_fraction,
            cpi_base=first.cpi_base,
            mlp=first.mlp,
            accesses_per_line=first.accesses_per_line,
            write_fraction=first.write_fraction,
            seed=seed,
        )
        self.phases = phases
        self._phase_idx = 0
        self._lines_left = self._phase_budget_lines(0)

    def _phase_budget_lines(self, idx: int) -> float:
        wl, instr = self.phases[idx]
        return instr * wl.mem_fraction / wl.accesses_per_line

    @property
    def current_phase(self) -> int:
        """Index of the phase currently being emitted (for tests)."""
        return self._phase_idx

    def _lines(self, n_lines: int) -> np.ndarray:
        pieces: list[np.ndarray] = []
        remaining = n_lines
        while remaining > 0:
            take = remaining
            if self._lines_left < take:
                take = max(int(self._lines_left), 1)
            pieces.append(self.phases[self._phase_idx][0]._lines(take))
            self._lines_left -= take
            remaining -= take
            if self._lines_left <= 0:
                self._phase_idx = (self._phase_idx + 1) % len(self.phases)
                self._lines_left += self._phase_budget_lines(self._phase_idx)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def _parts(self) -> list[Workload]:
        return [wl for wl, _ in self.phases]

    def footprint_lines(self) -> int:
        return sum(wl.footprint_lines() for wl, _ in self.phases)

    def reset(self) -> None:
        super().reset()
        for wl, _ in self.phases:
            wl.reset()
        self._phase_idx = 0
        self._lines_left = self._phase_budget_lines(0)
