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

The attach comes in two steps.  :class:`AttachPoint` runs the Pirate-free
prefix to the start marker once and snapshots the machine there;
:meth:`AttachPoint.measure` attaches the Pirate, measures one window and
detaches.  Every later window first restores the snapshot, so §III-B's
baseline and per-size windows share one prefix.  A snapshot holds the
machine (:meth:`~repro.hardware.machine.Machine.snapshot`: caches, counter
banks, bandwidth domains, thread clocks, limits and workload stream
positions) and the Pirate's sizing.  Only a ``random`` replacement level
makes the prefix depend on the machine seed
(:func:`prefix_depends_on_seed`); a caller that varies the seed per window
then measures each window with :func:`measure_between_markers`, which runs
its own prefix and snapshots nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.counters import CounterSample
from ..hardware.machine import Goal, Machine
from ..hardware.thread import SimThread, WorkloadLike
from .harness import _setup, measure_interval
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD, PirateMonitor
from .pirate import Pirate


@dataclass
class AttachWindow:
    """Measurement of one marker-delimited window of the Target."""

    start_marker: float
    stop_marker: float
    target_cache_bytes: int
    target: CounterSample
    pirate_fetch_ratio: float
    valid: bool


def prefix_depends_on_seed(config: MachineConfig) -> bool:
    """Whether the machine seed shapes the Pirate-free prefix.

    The seed reaches only ``random`` replacement; LRU, NRU and tree-PLRU
    state is a function of the access sequence alone, so their prefix is
    the same for every seed.
    """
    return any(level.policy == "random" for level in (config.l1, config.l2, config.l3))


def _check_markers(start_marker: float, stop_marker: float) -> None:
    if not 0 <= start_marker < stop_marker:
        raise MeasurementError("markers must satisfy 0 <= start < stop")


def _run_prefix(
    target_factory: Callable[[], WorkloadLike] | WorkloadLike,
    start_marker: float,
    config: MachineConfig,
    num_pirate_threads: int,
    seed: int,
) -> tuple[Machine, SimThread, Pirate]:
    """A machine whose Target has run Pirate-free to ``start_marker``."""
    machine, target, pirate = _setup(target_factory, config, num_pirate_threads, seed)
    # the instruction limit clamps the last quantum so the attach point
    # is instruction-exact, like a hardware breakpoint at the marker
    target.instruction_limit = start_marker
    machine.run_only(target, Goal(target, start_marker))
    return machine, target, pirate


def _measure_window(
    machine: Machine,
    target: SimThread,
    pirate: Pirate,
    start_marker: float,
    stolen_bytes: int,
    stop_marker: float,
    threshold: float,
) -> AttachWindow:
    """Attach a Pirate stealing ``stolen_bytes`` to a machine standing at
    the start marker, measure until ``stop_marker``, then detach."""
    target.finished = False
    target.instruction_limit = stop_marker

    pirate.set_working_set(stolen_bytes)
    pirate.warm()

    target_cache_bytes = machine.config.l3.size - stolen_bytes
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


class AttachPoint:
    """A machine run Pirate-free to ``start_marker`` retired Target
    instructions, from which any number of windows are measured.

    Construction runs the prefix and snapshots the machine and the idle
    Pirate.  :meth:`measure` measures one window; every call after the
    first restores the snapshot first, so each window starts from the
    identical machine a fresh prefix would have left.  A pickled point
    (a spawned pool worker's copy) carries the snapshot but not the
    machine: the receiving process builds the machine with the same
    factory, config and seed and restores the snapshot into it instead of
    re-running the prefix.  The Target's
    workload must provide ``snapshot()``/``restore()``, as every workload
    in :mod:`repro.workloads` does.
    """

    def __init__(
        self,
        target_factory: Callable[[], WorkloadLike] | WorkloadLike,
        start_marker: float,
        *,
        config: MachineConfig | None = None,
        num_pirate_threads: int = 1,
        seed: int = 0,
    ):
        _check_markers(start_marker, math.inf)
        self.target_factory = target_factory
        self.start_marker = start_marker
        self.config = config or nehalem_config()
        self.num_pirate_threads = num_pirate_threads
        self.seed = seed
        self._live = machine, _, pirate = _run_prefix(
            target_factory, start_marker, self.config, num_pirate_threads, seed
        )
        self._state = machine.snapshot(), pirate.snapshot()
        #: whether the live machine still stands at the marker
        self._untouched = True

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_live": None, "_untouched": False}

    def _at_marker(self) -> tuple[Machine, SimThread, Pirate]:
        """The live machine, Target thread and Pirate, standing at the start
        marker exactly as the prefix left them."""
        if self._live is None:
            self._live = _setup(
                self.target_factory, self.config, self.num_pirate_threads, self.seed
            )
        machine, _, pirate = self._live
        if not self._untouched:
            machine_state, pirate_state = self._state
            machine.restore(machine_state)
            pirate.restore(pirate_state)
        self._untouched = False
        return self._live

    def measure(
        self,
        stolen_bytes: int,
        stop_marker: float,
        *,
        threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    ) -> AttachWindow:
        """Attach a Pirate stealing ``stolen_bytes`` at the start marker,
        measure until ``stop_marker``, then detach."""
        _check_markers(self.start_marker, stop_marker)
        return _measure_window(
            *self._at_marker(), self.start_marker, stolen_bytes, stop_marker, threshold
        )


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
    exactly like attaching to a running process on real hardware.  A
    single window needs no snapshot (use :class:`AttachPoint` for several),
    so any :class:`~repro.hardware.thread.WorkloadLike` works here.
    """
    _check_markers(start_marker, stop_marker)
    config = config or nehalem_config()
    live = _run_prefix(target_factory, start_marker, config, num_pirate_threads, seed)
    return _measure_window(*live, start_marker, stolen_bytes, stop_marker, threshold)
