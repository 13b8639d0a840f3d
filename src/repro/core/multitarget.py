"""Multithreaded Targets — the extension §III-C defers.

"For multithreaded Targets it is important to consider the aggregate
bandwidth of the Target threads when deciding how many Pirate threads to
run.  While we believe this is a straightforward extension, we have not
investigated it for this work."

This module is that extension: a data-parallel Target whose threads run on
several cores, measured as one unit, and a thread probe that compares the
*aggregate* Target CPI (total cycles over total instructions across Target
threads) between one and two Pirate threads.

The Target threads share the workload's parameters but own disjoint shards
of its address space (data parallelism), so the hierarchy's private-data
owner optimization remains exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.counters import CounterSample
from ..hardware.machine import Goal, Machine
from ..hardware.thread import SimThread, WorkloadLike
from ..observability import ensure_telemetry
from ..rng import stable_seed
from ..units import MB
from ..workloads import make_benchmark
from .harness import measure_interval
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD, PirateMonitor
from .pirate import Pirate
from .resilience import AttemptResult, AttemptSpec, RetryEngine, RetryPolicy


def make_parallel_target(
    name: str, threads: int, *, seed: int = 0
) -> list[WorkloadLike]:
    """Build ``threads`` data-parallel shards of a suite benchmark.

    Shard ``i`` is the benchmark instantiated in its own address-space slot
    with its own random streams — the simplest faithful model of a
    data-parallel application (think OpenMP over disjoint tiles).
    """
    if threads < 1:
        raise MeasurementError("need at least one target thread")
    return [
        make_benchmark(name, instance=i, seed=stable_seed(seed, name, i))
        for i in range(threads)
    ]


def _aggregate(deltas: list[CounterSample]) -> CounterSample:
    from dataclasses import fields

    out = CounterSample()
    for d in deltas:
        for f in fields(CounterSample):
            setattr(out, f.name, getattr(out, f.name) + getattr(d, f.name))
    return out


@dataclass
class MultiTargetResult:
    """One fixed-size measurement of a multithreaded Target."""

    target_threads: int
    pirate_threads: int
    target_cache_bytes: int
    #: aggregate counters over all Target threads
    aggregate: CounterSample
    per_thread: list[CounterSample]
    pirate_fetch_ratio: float
    valid: bool
    #: measurement attempts the retry engine spent on this interval
    attempts: int = 1

    @property
    def aggregate_cpi(self) -> float:
        return self.aggregate.cpi

    def aggregate_bandwidth_gbps(self, clock_hz: float) -> float:
        total = 0.0
        for d in self.per_thread:
            total += d.bandwidth_gbps(clock_hz)
        return total


def measure_multithreaded(
    target_factories: list[Callable[[], WorkloadLike]] | list[WorkloadLike],
    stolen_bytes: int,
    *,
    config: MachineConfig | None = None,
    num_pirate_threads: int = 1,
    interval_instructions: float = 500_000.0,
    warmup_instructions: float | None = None,
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    seed: int = 0,
    retry_policy: RetryPolicy | None = None,
    telemetry=None,
) -> MultiTargetResult:
    """Co-run a multithreaded Target with the Pirate for one interval.

    Target thread ``i`` is pinned to core ``i``; the Pirate occupies the
    remaining cores.  The interval ends when *every* Target thread has
    retired its share of instructions.

    ``retry_policy`` routes the interval through the retry engine: if the
    Pirate ran hot or any Target thread's counters are implausible for one
    thread's interval, the co-run warms up further (with backoff) and the
    interval is re-measured, up to the policy's attempt budget.
    """
    config = config or nehalem_config()
    tel = ensure_telemetry(telemetry)
    k = len(target_factories)
    if k < 1:
        raise MeasurementError("need at least one target thread")
    if k + num_pirate_threads > config.num_cores:
        raise MeasurementError(
            f"{k} target + {num_pirate_threads} pirate threads exceed "
            f"{config.num_cores} cores"
        )
    machine = Machine(config, seed=seed)
    threads: list[SimThread] = []
    for i, factory in enumerate(target_factories):
        wl = factory() if callable(factory) else factory
        threads.append(machine.add_thread(wl, core=i))
    pirate = Pirate(machine, cores=list(range(k, k + num_pirate_threads)))
    with tel.span("pirate_warm", stolen_mb=stolen_bytes / MB) as sp:
        t0 = machine.frontier
        pirate.set_working_set(stolen_bytes)
        pirate.warm()
        sp.add_cycles(machine.frontier - t0)

    def each_retires(instructions: float) -> Goal:
        return Goal(threads, [t.instructions + instructions for t in threads])

    if warmup_instructions is None:
        warmup_instructions = interval_instructions
    with tel.span("warmup", instructions=warmup_instructions) as sp:
        t0 = machine.frontier
        machine.run(each_retires(warmup_instructions))
        sp.add_cycles(machine.frontier - t0)

    monitor = PirateMonitor(pirate, threshold)

    def attempt(spec: AttemptSpec) -> AttemptResult:
        """One interval: a sample per Target thread, each its own counters."""
        if spec.attempt > 1:
            machine.run(each_retires(spec.warmup_instructions))  # escalate: extended co-run warm-up
        samples = measure_interval(
            machine,
            monitor,
            each_retires(interval_instructions),
            list(range(k)),
            config.l3.size - stolen_bytes,
            tel,
            target_threads=k,
        )
        return samples, None, interval_instructions

    if retry_policy is None:
        samples, attempts = attempt(AttemptSpec(1, warmup_instructions, 0.0))[0], 1
    else:
        outcome = RetryEngine(retry_policy, telemetry=tel).run(
            attempt,
            base_warmup_instructions=warmup_instructions,
            interval_instructions=interval_instructions,
        )
        samples, attempts = outcome.samples, outcome.attempts
    deltas = [s.target for s in samples]
    return MultiTargetResult(
        target_threads=k,
        pirate_threads=num_pirate_threads,
        target_cache_bytes=config.l3.size - stolen_bytes,
        aggregate=_aggregate(deltas),
        per_thread=deltas,
        pirate_fetch_ratio=samples[0].pirate_fetch_ratio,
        valid=samples[0].valid,
        attempts=attempts,
    )


@dataclass
class MultiTargetProbe:
    """Outcome of the aggregate-bandwidth thread probe."""

    pirate_threads: int
    aggregate_cpi_by_threads: dict[int, float] = field(default_factory=dict)

    def slowdown(self, k: int) -> float:
        c1 = self.aggregate_cpi_by_threads[1]
        return (self.aggregate_cpi_by_threads[k] - c1) / c1


def choose_pirate_threads_multitarget(
    target_name: str,
    target_threads: int,
    *,
    config: MachineConfig | None = None,
    max_pirate_threads: int | None = None,
    slowdown_threshold: float = 0.01,
    probe_instructions: float = 300_000.0,
    probe_steal_bytes: int = 512 * 1024,
    seed: int = 0,
) -> MultiTargetProbe:
    """§III-C's probe generalized to multithreaded Targets.

    The decision variable is the *aggregate* Target CPI: with several Target
    threads demanding L3 bandwidth simultaneously, a second Pirate thread
    saturates the shared L3 sooner than the single-threaded probe would
    predict — which is exactly why the paper flags the aggregate-bandwidth
    consideration.
    """
    config = config or nehalem_config()
    avail = config.num_cores - target_threads
    if avail < 1:
        raise MeasurementError("no cores left for the Pirate")
    if max_pirate_threads is None:
        max_pirate_threads = min(2, avail)
    if max_pirate_threads > avail:
        raise MeasurementError(
            f"max_pirate_threads {max_pirate_threads} exceeds free cores {avail}"
        )
    cpis: dict[int, float] = {}
    for k in range(1, max_pirate_threads + 1):
        res = measure_multithreaded(
            make_parallel_target(target_name, target_threads, seed=seed),
            probe_steal_bytes,
            config=config,
            num_pirate_threads=k,
            interval_instructions=probe_instructions,
            warmup_instructions=probe_instructions / 2,
            seed=stable_seed(seed, "mt-probe", k),
        )
        cpis[k] = res.aggregate_cpi
    chosen = 1
    for k in range(2, max_pirate_threads + 1):
        if (cpis[k] - cpis[1]) / cpis[1] < slowdown_threshold:
            chosen = k
        else:
            break
    return MultiTargetProbe(pirate_threads=chosen, aggregate_cpi_by_threads=cpis)
