"""Throughput-scaling measurement and prediction (§I-A, Figs. 1 and 2).

The paper's motivating analysis: co-running ``k`` instances of the same
application splits the shared cache ``k`` ways, so each instance runs at
``CPI(C/k)`` from the Pirate-captured curve — predicting throughput
``k * CPI(C) / CPI(C/k)``.  When the instances' aggregate required bandwidth
``k * BW(C/k)`` exceeds the memory system's maximum, execution is further
scaled by ``max_bw / required_bw`` — LBM's 87% effect (Fig. 2(d)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.machine import Goal, Machine
from ..hardware.thread import WorkloadLike
from ..core.curves import PerformanceCurve


@dataclass
class ScalingPrediction:
    """Predicted throughput for ``instances`` co-running copies."""

    instances: int
    cache_per_instance_mb: float
    cpi_full_cache: float
    cpi_at_share: float
    required_bandwidth_gbps: float
    bandwidth_limited: bool
    #: normalized throughput (1.0 = one instance at full cache)
    throughput: float

    @property
    def ideal(self) -> float:
        return float(self.instances)


def predict_throughput(
    curve: PerformanceCurve,
    instances: int,
    *,
    l3_mb: float = 8.0,
    max_bandwidth_gbps: float = 10.4,
) -> ScalingPrediction:
    """Predict multi-instance throughput from a single-instance curve.

    Uses equal cache sharing (§I-A: "all instances typically receive equal
    portions of the shared resources") and the bandwidth-cap correction.
    """
    if instances < 1:
        raise MeasurementError("need at least one instance")
    share = l3_mb / instances
    cpi_full = curve.cpi_at(l3_mb)
    cpi_share = curve.cpi_at(share)
    per_instance_bw = curve.bandwidth_at(share)
    required = instances * per_instance_bw
    limited = required > max_bandwidth_gbps
    scale = max_bandwidth_gbps / required if limited else 1.0
    throughput = instances * (cpi_full / cpi_share) * scale
    return ScalingPrediction(
        instances=instances,
        cache_per_instance_mb=share,
        cpi_full_cache=cpi_full,
        cpi_at_share=cpi_share,
        required_bandwidth_gbps=required,
        bandwidth_limited=limited,
        throughput=throughput,
    )


@dataclass
class ThroughputMeasurement:
    """Measured throughput of ``instances`` co-running copies."""

    instances: int
    #: normalized aggregate throughput (1.0 = one instance alone)
    throughput: float
    #: per-instance CPIs
    cpis: list[float]
    #: aggregate measured off-chip bandwidth (GB/s)
    bandwidth_gbps: float
    #: single-instance completion cycles (the normalization baseline)
    solo_cycles: float


def measure_throughput(
    factory: Callable[[int], WorkloadLike],
    instances: int,
    instructions: float,
    *,
    config: MachineConfig | None = None,
    warmup_instructions: float | None = None,
    seed: int = 0,
) -> ThroughputMeasurement:
    """Run ``instances`` copies, one per core, and measure actual scaling.

    ``factory(i)`` must return instance ``i`` with a disjoint address space
    (e.g. ``lambda i: make_benchmark("lbm", instance=i)``).  Throughput is
    the sum over instances of ``solo_time / instance_time`` for the same
    instruction budget — the paper's normalized aggregate throughput.
    """
    config = config or nehalem_config()
    if not 1 <= instances <= config.num_cores:
        raise MeasurementError(
            f"{instances} instances need up to {config.num_cores} cores"
        )
    if warmup_instructions is None:
        warmup_instructions = instructions / 4

    # solo baseline
    solo_machine = Machine(config, seed=seed)
    solo = solo_machine.add_thread(
        factory(0), core=0, instruction_limit=warmup_instructions + instructions
    )
    solo_machine.run(Goal(solo, warmup_instructions))
    solo_t0 = solo_machine.frontier
    solo_c0 = solo_machine.counters.sample(0)
    solo_machine.run()
    solo_cycles = solo_machine.frontier - solo_t0

    if instances == 1:
        d = solo_machine.counters.sample(0).delta(solo_c0)
        return ThroughputMeasurement(
            instances=1,
            throughput=1.0,
            cpis=[d.cpi],
            bandwidth_gbps=d.bandwidth_gbps(config.core.clock_hz),
            solo_cycles=solo_cycles,
        )

    machine = Machine(config, seed=seed)
    threads = [
        machine.add_thread(
            factory(i), core=i, instruction_limit=warmup_instructions + instructions
        )
        for i in range(instances)
    ]
    machine.run(Goal(threads, [warmup_instructions] * instances))
    t0 = machine.frontier
    befores = [machine.counters.sample(i) for i in range(instances)]
    machine.run()  # every instance runs to its instruction limit

    cpis = []
    total_bw = 0.0
    throughput = 0.0
    for i in range(instances):
        d = machine.counters.sample(i).delta(befores[i])
        cpis.append(d.cpi)
        total_bw += d.bandwidth_gbps(config.core.clock_hz)
        # a finished thread's clock stops at its finish time
        instance_cycles = threads[i].clock - t0
        throughput += solo_cycles / max(instance_cycles, 1.0)
    return ThroughputMeasurement(
        instances=instances,
        throughput=throughput,
        cpis=cpis,
        bandwidth_gbps=total_bw,
        solo_cycles=solo_cycles,
    )
