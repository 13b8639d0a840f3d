"""Marker-gated pirating (§III-A's attach/detach feature).

"We have added an additional feature that allows us to attach to a running
Target process and start and stop the Pirate at specific Target instruction
addresses.  This latter feature is used to collect data for reference
simulation comparison."

On the simulated machine the natural analogue of an instruction address
marker is a retired-instruction count: the Target runs alone until the
start marker, the Pirate attaches (and warms), measurement covers exactly
the marked window, and the Pirate detaches at the stop marker.  The tracer
in :mod:`repro.tracing` uses the *same* markers to capture the reference
trace, which is what makes the Fig. 6 comparison apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.counters import CounterSample
from ..hardware.machine import Goal
from ..hardware.thread import WorkloadLike
from .harness import _setup, measure_interval
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD, PirateMonitor


@dataclass
class AttachWindow:
    """Measurement of one marker-delimited window of the Target."""

    start_marker: float
    stop_marker: float
    target_cache_bytes: int
    target: CounterSample
    pirate_fetch_ratio: float
    valid: bool


def measure_between_markers(
    target_factory: Callable[[], WorkloadLike] | WorkloadLike,
    stolen_bytes: int,
    start_marker: float,
    stop_marker: float,
    *,
    config: MachineConfig | None = None,
    num_pirate_threads: int = 1,
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    seed: int = 0,
) -> AttachWindow:
    """Attach the Pirate at ``start_marker`` retired Target instructions,
    measure until ``stop_marker``, then detach.

    The window before the start marker runs Pirate-free at native speed,
    exactly like attaching to a running process on real hardware.
    """
    if not 0 <= start_marker < stop_marker:
        raise MeasurementError("markers must satisfy 0 <= start < stop")
    config = config or nehalem_config()
    machine, target, pirate = _setup(target_factory, config, num_pirate_threads, seed)

    # run to the start marker with the Pirate idle (stealing nothing); the
    # instruction limit clamps the last quantum so the attach point is
    # instruction-exact, like a hardware breakpoint at the marker address
    target.instruction_limit = start_marker
    machine.run_only(target, Goal(target, start_marker))
    target.finished = False
    target.instruction_limit = stop_marker

    pirate.set_working_set(stolen_bytes)
    pirate.warm()

    target_cache_bytes = config.l3.size - stolen_bytes
    (sample,) = measure_interval(
        machine,
        PirateMonitor(pirate, threshold),
        Goal(target, stop_marker),
        [target.core],
        target_cache_bytes,
    )
    # detach: stop stealing (relevant if the caller keeps using the machine)
    pirate.set_working_set(0)
    return AttachWindow(
        start_marker=start_marker,
        stop_marker=stop_marker,
        target_cache_bytes=target_cache_bytes,
        target=sample.target,
        pirate_fetch_ratio=sample.pirate_fetch_ratio,
        valid=sample.valid,
    )
