"""Baseline-offset calibration of reference curves (§III-B1).

"We then calibrated our cache simulator using performance counters (with no
cache stealing) to measure the baseline fetch ratio of our benchmark
applications.  This provided us with a reference fetch ratio, which was used
to offset the fetch ratio curves generated by the cache simulator to match
the reference point.  This corrects for cold start effects introduced by our
simulation methodology and for the prefetchers that we were unable to
disable."

The same procedure applies here: run the Target alone at full cache, read
its fetch ratio from the counters, and shift the simulated curve so its
full-cache point agrees.
"""

from __future__ import annotations

from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..hardware.machine import Goal, Machine
from ..hardware.thread import WorkloadLike
from .sweep import ReferenceCurve


def measure_baseline_fetch_ratio(
    target_factory: Callable[[], WorkloadLike] | WorkloadLike,
    instructions: float,
    *,
    config: MachineConfig | None = None,
    warmup_instructions: float | None = None,
    seed: int = 0,
) -> float:
    """Counter-measured fetch ratio of the Target alone at full cache."""
    config = config or nehalem_config()
    machine = Machine(config, seed=seed)
    if callable(target_factory):
        workload = target_factory()
    else:
        workload = target_factory
        workload.reset()
    if warmup_instructions is None:
        warmup_instructions = instructions / 2
    thread = machine.add_thread(
        workload, core=0, instruction_limit=warmup_instructions + instructions
    )
    machine.run(Goal(thread, warmup_instructions))
    before = machine.counters.sample(0)
    machine.run()
    delta = machine.counters.sample(0).delta(before)
    return delta.fetch_ratio


def calibrate_offset(curve: ReferenceCurve, baseline_fetch_ratio: float) -> float:
    """Offset that pins the curve's largest-cache point to the baseline."""
    largest = max(curve.points, key=lambda p: p.cache_bytes)
    return baseline_fetch_ratio - largest.fetch_ratio


def apply_offset(curve: ReferenceCurve, baseline_fetch_ratio: float) -> ReferenceCurve:
    """Shift ``curve`` so its full-cache fetch ratio equals the baseline."""
    return curve.shifted(calibrate_offset(curve, baseline_fetch_ratio))
