"""Deciding how many Pirate threads are safe (§III-C).

More Pirate threads steal more cache but consume more shared-L3 bandwidth;
past the point where the Pirate plus the Target saturate the L3, the
Target's execution rate is distorted and all timing-dependent measurements
are biased.  The paper's probe: steal a *small* amount (0.5MB) first with
one thread, then with two, and compare the Target's CPI.  If the slowdown
``(cpi2 - cpi1)/cpi1`` stays under a threshold (1% baseline), two threads
are safe *for any stolen size* — stealing more cache only lowers the
Target's L3 bandwidth demand, never raises it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.thread import WorkloadLike
from ..units import MB
from .harness import measure_fixed_size

#: The paper's baseline slowdown threshold for enabling a second thread.
DEFAULT_SLOWDOWN_THRESHOLD = 0.01

#: Probe steal size — small on purpose, the probe measures bandwidth
#: interference, not capacity effects.
PROBE_STEAL_BYTES = MB // 2


@dataclass
class ThreadProbeResult:
    """Outcome of the thread-count probe."""

    threads: int
    #: CPI measured with k pirate threads, k = 1..max probed
    cpi_by_threads: dict[int, float] = field(default_factory=dict)

    def slowdown(self, k: int) -> float:
        """Target slowdown of k threads relative to one: (cpi_k-cpi_1)/cpi_1."""
        if 1 not in self.cpi_by_threads or k not in self.cpi_by_threads:
            raise MeasurementError(f"no probe data for {k} threads")
        c1 = self.cpi_by_threads[1]
        return (self.cpi_by_threads[k] - c1) / c1


def choose_pirate_threads(
    target_factory: Callable[[], WorkloadLike],
    *,
    config: MachineConfig | None = None,
    max_threads: int = 2,
    slowdown_threshold: float = DEFAULT_SLOWDOWN_THRESHOLD,
    probe_instructions: float = 400_000.0,
    seed: int = 0,
) -> ThreadProbeResult:
    """Probe how many Pirate threads the Target tolerates (§III-C).

    Measures the Target's CPI with 1..max_threads Pirate threads stealing
    0.5MB and returns the largest thread count whose slowdown relative to a
    single thread stays under ``slowdown_threshold``.  One thread is always
    safe: two saturating cores stay under the total L3 bandwidth.
    """
    config = config or nehalem_config()
    if max_threads < 1 or max_threads >= config.num_cores:
        raise MeasurementError(
            f"max_threads must be in [1, {config.num_cores - 1}]"
        )
    cpis: dict[int, float] = {}
    for k in range(1, max_threads + 1):
        result = measure_fixed_size(
            target_factory,
            PROBE_STEAL_BYTES,
            config=config,
            num_pirate_threads=k,
            interval_instructions=probe_instructions,
            n_intervals=1,
            warmup_instructions=probe_instructions / 2,
            seed=seed,
        )
        agg_cycles = sum(s.target.cycles for s in result.samples)
        agg_instr = sum(s.target.instructions for s in result.samples)
        cpis[k] = agg_cycles / agg_instr

    chosen = 1
    for k in range(2, max_threads + 1):
        if (cpis[k] - cpis[1]) / cpis[1] < slowdown_threshold:
            chosen = k
        else:
            break
    return ThreadProbeResult(threads=chosen, cpi_by_threads=cpis)
