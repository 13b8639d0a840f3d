"""The Bandwidth Bandit: stealing off-chip bandwidth instead of cache.

The paper's conclusion names this as future work: "extending this approach
to collect performance data against other shared resources" — which became
the authors' follow-on *Bandwidth Bandit* (Eklov et al., CGO 2013).  This
module implements that extension on the same machinery: a Bandit
co-runner that consumes a controllable amount of DRAM bandwidth while the
Target's performance is read from the counters, yielding CPI as a function
of the off-chip bandwidth *available* to the Target.

Design points taken from the Bandit method:

* the Bandit streams through a region far larger than the L3, so every
  access is a DRAM fetch (pure bandwidth pressure);
* its accesses are confined to a **small band of cache sets**, so the cache
  capacity it pollutes is bounded (``sets_used * ways`` lines — well under
  1% of the L3 with the default 64 sets) and the measurement isolates the
  *bandwidth* dimension from the *capacity* dimension that the Pirate
  measures;
* intensity is controlled by the issue gap (cycles of compute between
  memory accesses), and the *achieved* bandwidth is read back from the
  Bandit's own counters — under saturation it gets less than it asked for,
  which is itself the signal that the pipe is full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import MachineConfig, nehalem_config
from ..errors import ConfigError, MeasurementError
from ..hardware.counters import CounterSample
from ..hardware.machine import Machine
from ..hardware.thread import SimThread, WorkloadLike
from ..observability import ensure_telemetry

#: Bandit line-address base — far from workloads and from the Pirate.
BANDIT_BASE = 1 << 44

#: Default number of distinct cache sets the Bandit touches.
DEFAULT_SETS_USED = 64


class BanditWorkload:
    """A DRAM-streaming workload confined to a band of cache sets.

    Consecutive accesses rotate through ``sets_used`` set indices while the
    tag keeps increasing, so every access misses the (tiny) cached band and
    goes off-chip, at a rate set by ``gap_cycles``.
    """

    def __init__(
        self,
        index: int = 0,
        *,
        sets_used: int = DEFAULT_SETS_USED,
        l3_sets: int = 8192,
        gap_cycles: float = 2.0,
    ):
        if sets_used < 1 or sets_used > l3_sets:
            raise ConfigError(f"sets_used must be in [1, {l3_sets}]")
        self.name = f"bandit.{index}"
        self.index = index
        self.sets_used = sets_used
        self.l3_sets = l3_sets
        self.mem_fraction = 1.0
        self.accesses_per_line = 1.0
        self.mlp = 16.0  # deep request queue: latency fully overlapped
        self.cpi_base = max(gap_cycles, 0.1)
        self.bypass_private = True
        self._pos = 0

    @property
    def gap_cycles(self) -> float:
        return self.cpi_base

    def set_gap(self, gap_cycles: float) -> None:
        """Set the per-access compute gap (larger gap = less bandwidth)."""
        self.cpi_base = max(gap_cycles, 0.1)

    def chunk(self, n_lines: int) -> tuple[np.ndarray, None]:
        k = self._pos + np.arange(n_lines, dtype=np.int64)
        self._pos += n_lines
        # set index rotates through the band; the tag (k // sets_used) is
        # strictly increasing, so nothing is ever re-accessed
        set_idx = (k % self.sets_used) * (self.l3_sets // self.sets_used)
        tag = k // self.sets_used + 1
        return BANDIT_BASE + tag * self.l3_sets + set_idx, None

    def reset(self) -> None:
        self._pos = 0


class Bandit:
    """One or more Bandit threads managed as a bandwidth-stealing unit."""

    def __init__(
        self,
        machine: Machine,
        cores: list[int],
        *,
        sets_used: int = DEFAULT_SETS_USED,
    ):
        if not cores:
            raise ConfigError("the Bandit needs at least one core")
        if len(set(cores)) != len(cores):
            raise ConfigError("bandit cores must be distinct")
        self.machine = machine
        self.cores = list(cores)
        l3_sets = machine.config.l3.num_sets
        self.workloads = [
            BanditWorkload(i, sets_used=sets_used, l3_sets=l3_sets)
            for i in range(len(cores))
        ]
        self.threads: list[SimThread] = [
            machine.add_thread(wl, core) for wl, core in zip(self.workloads, self.cores)
        ]

    def set_gap(self, gap_cycles: float) -> None:
        """Set every thread's issue gap."""
        for wl in self.workloads:
            wl.set_gap(gap_cycles)

    def sample(self) -> list[CounterSample]:
        return [self.machine.counters.sample(c) for c in self.cores]

    def achieved_bandwidth_gbps(self, since: list[CounterSample]) -> float:
        """Off-chip bandwidth the Bandit actually obtained since ``since``."""
        clock = self.machine.config.core.clock_hz
        total = 0.0
        for before, core in zip(since, self.cores):
            d = self.machine.counters.sample(core).delta(before)
            total += d.bandwidth_gbps(clock)
        return total

    def cache_pollution_lines(self) -> int:
        """Upper bound on L3 lines the Bandit can occupy."""
        return self.workloads[0].sets_used * self.machine.config.l3.ways


@dataclass
class BanditPoint:
    """One operating point of the bandwidth sweep."""

    gap_cycles: float
    bandit_bandwidth_gbps: float
    available_bandwidth_gbps: float
    target_cpi: float
    target_bandwidth_gbps: float
    target: CounterSample


@dataclass
class BanditCurve:
    """Target performance as a function of available off-chip bandwidth."""

    benchmark: str
    capacity_gbps: float
    points: list[BanditPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.points.sort(key=lambda p: p.available_bandwidth_gbps)

    @property
    def available_gbps(self) -> np.ndarray:
        return np.array([p.available_bandwidth_gbps for p in self.points])

    @property
    def cpi(self) -> np.ndarray:
        return np.array([p.target_cpi for p in self.points])

    def cpi_at(self, available_gbps: float) -> float:
        """Interpolated Target CPI at a given available bandwidth."""
        return float(np.interp(available_gbps, self.available_gbps, self.cpi))

    def format_table(self) -> str:
        out = [
            f"# {self.benchmark} vs available off-chip bandwidth "
            f"(capacity {self.capacity_gbps:.1f} GB/s)",
            f"{'avail GB/s':>11} {'bandit GB/s':>12} {'target CPI':>11} {'target GB/s':>12}",
        ]
        for p in self.points:
            out.append(
                f"{p.available_bandwidth_gbps:11.2f} {p.bandit_bandwidth_gbps:12.2f} "
                f"{p.target_cpi:11.3f} {p.target_bandwidth_gbps:12.2f}"
            )
        return "\n".join(out)


def measure_bandwidth_curve(
    target_factory: Callable[[], WorkloadLike] | WorkloadLike,
    gaps_cycles: list[float],
    *,
    config: MachineConfig | None = None,
    num_bandit_threads: int = 1,
    interval_instructions: float = 500_000.0,
    warmup_instructions: float = 500_000.0,
    benchmark: str | None = None,
    sets_used: int = DEFAULT_SETS_USED,
    seed: int = 0,
    telemetry=None,
) -> BanditCurve:
    """Sweep the Bandit's intensity and record the Target's response.

    For each issue gap, a fresh machine co-runs Target and Bandit; after
    warm-up, one interval is measured and the Bandit's achieved bandwidth is
    subtracted from the system capacity to give the bandwidth *available* to
    the Target.
    """
    config = config or nehalem_config()
    tel = ensure_telemetry(telemetry)
    if num_bandit_threads >= config.num_cores:
        raise MeasurementError("not enough cores for target + bandit threads")
    if not gaps_cycles:
        raise MeasurementError("need at least one bandit gap")
    points = []
    name = benchmark
    for gap in gaps_cycles:
        with tel.span("bandit_point", gap_cycles=gap) as point_sp:
            machine = Machine(config, seed=seed)
            point_t0 = machine.frontier
            if callable(target_factory):
                wl = target_factory()
            else:
                wl = target_factory
                wl.reset()
            if name is None:
                name = wl.name
            target = machine.add_thread(wl, core=0)
            bandit = Bandit(
                machine, list(range(1, 1 + num_bandit_threads)), sets_used=sets_used
            )
            bandit.set_gap(gap)
            warm_goal = warmup_instructions
            machine.run(until=lambda: target.instructions >= warm_goal)

            before_t = machine.counters.sample(0)
            before_b = bandit.sample()
            goal = target.instructions + interval_instructions
            machine.run(until=lambda: target.instructions >= goal)
            d = machine.counters.sample(0).delta(before_t)
            bandit_bw = bandit.achieved_bandwidth_gbps(before_b)
            tel.count("intervals_total")
            point_sp.add_cycles(machine.frontier - point_t0)
        points.append(
            BanditPoint(
                gap_cycles=gap,
                bandit_bandwidth_gbps=bandit_bw,
                available_bandwidth_gbps=max(
                    config.dram_bandwidth_gbps - bandit_bw, 0.0
                ),
                target_cpi=d.cpi,
                target_bandwidth_gbps=d.bandwidth_gbps(config.core.clock_hz),
                target=d,
            )
        )
    return BanditCurve(
        benchmark=name or "target",
        capacity_gbps=config.dram_bandwidth_gbps,
        points=points,
    )
