"""Bandwidth domains: shared interfaces with finite capacity.

Two instances exist per machine — the off-chip (DRAM) interface whose 10.4
GB/s cap makes LBM bandwidth-bound in Fig. 2, and the shared-L3 interface
whose 68 GB/s cap limits how many Pirate threads can run (§III-C).

The model is *epoch feedback with demand estimation*: every quantum reports
the bytes it moved and the cycles it would have taken unconstrained.  At each
epoch rollover the domain sums the per-thread unconstrained rates into an
aggregate demand ``D`` and publishes

* ``stretch = max(1, D / C)`` — proportional work-conserving sharing: when
  demand exceeds capacity ``C``, every requester's transfers slow by ``D/C``
  (this reproduces the paper's LBM result: 12 GB/s demanded over a 10.4 GB/s
  pipe runs at 10.4/12 = 87% speed),
* ``latency_scale = 1 + u`` with ``u = min(D/C, 1)`` — a mild queueing-delay
  inflation applied to per-miss latency.

One-epoch feedback delay means transients settle within an epoch or two;
steady-state workloads (which is what every experiment measures) converge to
the proportional-sharing fixed point.
"""

from __future__ import annotations


class BandwidthDomain:
    """Capacity-limited shared interface with epoch-feedback contention."""

    def __init__(
        self,
        name: str,
        capacity_bytes_per_cycle: float,
        epoch_cycles: float = 50_000.0,
        latency_alpha: float = 1.0,
    ):
        if capacity_bytes_per_cycle <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        if epoch_cycles <= 0:
            raise ValueError(f"{name}: epoch must be positive")
        self.name = name
        self.capacity = capacity_bytes_per_cycle
        self.epoch_cycles = epoch_cycles
        self.latency_alpha = latency_alpha
        #: demand accumulators for the current epoch: thread -> [bytes, cycles]
        self._acc: dict[int, list[float]] = {}
        self._epoch_index = 0
        #: published factors (from the previous epoch's demand)
        self.stretch = 1.0
        self.latency_scale = 1.0
        self.demand_rate = 0.0
        #: total bytes ever recorded (for reports)
        self.total_bytes = 0.0

    def record(self, thread_id: int, nbytes: float, unstretched_cycles: float) -> None:
        """Report one quantum's traffic: bytes moved, unconstrained duration."""
        if nbytes <= 0 or unstretched_cycles <= 0:
            return
        self.total_bytes += nbytes
        acc = self._acc.get(thread_id)
        if acc is None:
            self._acc[thread_id] = [nbytes, unstretched_cycles]
        else:
            acc[0] += nbytes
            acc[1] += unstretched_cycles

    def maybe_rollover(self, now_cycles: float) -> bool:
        """Advance the epoch if global time crossed a boundary.

        Returns True when factors were republished.  The caller (the machine)
        invokes this with the minimum runnable-thread clock.
        """
        epoch = int(now_cycles / self.epoch_cycles)
        if epoch <= self._epoch_index:
            return False
        self._epoch_index = epoch
        demand = 0.0
        for nbytes, cycles in self._acc.values():
            demand += nbytes / cycles
        self._acc.clear()
        self.demand_rate = demand
        util = demand / self.capacity
        self.stretch = util if util > 1.0 else 1.0
        self.latency_scale = 1.0 + self.latency_alpha * (util if util < 1.0 else 1.0)
        return True

    @property
    def utilization(self) -> float:
        """Published demand over capacity (may exceed 1 when oversubscribed)."""
        return self.demand_rate / self.capacity

    _STATE = ("_epoch_index", "stretch", "latency_scale", "demand_rate", "total_bytes")

    def snapshot(self) -> tuple:
        """The epoch's demand accumulators and the published factors.

        The accumulators keep their insertion order: the rollover sums
        them in that order, and float addition is order-sensitive.
        """
        acc = {tid: list(v) for tid, v in self._acc.items()}
        return acc, [getattr(self, a) for a in self._STATE]

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot`."""
        acc, values = state
        self._acc = {tid: list(v) for tid, v in acc.items()}
        for attr, value in zip(self._STATE, values):
            setattr(self, attr, value)

    def reset(self) -> None:
        """Forget all demand history (fresh machine)."""
        self._acc.clear()
        self._epoch_index = 0
        self.stretch = 1.0
        self.latency_scale = 1.0
        self.demand_rate = 0.0
        self.total_bytes = 0.0
