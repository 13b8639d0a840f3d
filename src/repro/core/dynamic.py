"""Dynamic working-set adjustment (§II-C1, Fig. 5).

Captures the full performance curve from a *single* Target execution: the
Pirate cycles through the whole range of cache sizes, holding each for one
measurement interval.  Between intervals, whichever side's working set grew
runs alone to warm its new cache space — the Pirate after it grows, the
Target at the wrap-around when the Pirate shrinks back — so no artificial
cold misses pollute the measurements.

The Table III tradeoff lives here: small intervals capture short program
phases (403.gcc) but pay more warm-up overhead; the 100M-instruction
interval (1M at this library's 1:100 simulation scale) is the paper's sweet
spot at 5.5% average overhead and 0.5% average CPI error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..config import MachineConfig, nehalem_config
from ..errors import MeasurementError
from ..hardware.machine import Machine
from ..hardware.thread import WorkloadLike
from ..observability import ensure_telemetry
from ..units import MB
from .curves import IntervalSample, PerformanceCurve
from .harness import DEFAULT_INTERVAL_INSTRUCTIONS, _make_target, _setup
from .monitor import DEFAULT_FETCH_RATIO_THRESHOLD, PirateMonitor
from .resilience import PartialCurve, PointQuality, RetryPolicy, classify_sample


@dataclass
class DynamicRunResult:
    """A full dynamic-pirating run over one Target execution."""

    benchmark: str
    curve: PerformanceCurve
    samples: list[IntervalSample] = field(default_factory=list)
    #: frontier cycles for the whole pirated execution (incl. warm-ups)
    wall_cycles: float = 0.0
    #: frontier cycles for the same Target running alone
    baseline_cycles: float = 0.0
    #: Target instructions retired
    instructions: float = 0.0
    measurement_cycles_completed: int = 0

    @property
    def overhead(self) -> float:
        """Execution-time overhead vs running the Target alone (Table III)."""
        if self.baseline_cycles <= 0:
            return 0.0
        return self.wall_cycles / self.baseline_cycles - 1.0


def run_target_alone(
    target_factory: Callable[[], WorkloadLike] | WorkloadLike,
    total_instructions: float,
    *,
    config: MachineConfig | None = None,
    seed: int = 0,
    quantum: float | None = None,
) -> float:
    """Cycles for the Target to retire ``total_instructions`` with no Pirate.

    The Table III overhead baseline.
    """
    config = config or nehalem_config()
    kwargs = {} if quantum is None else {"quantum_cycles": quantum}
    machine = Machine(config, seed=seed, **kwargs)
    target = machine.add_thread(
        _make_target(target_factory), core=0, instruction_limit=total_instructions
    )
    start = machine.frontier
    machine.run()
    if not target.finished:
        raise MeasurementError("baseline target never finished")
    return machine.frontier - start


def measure_curve_dynamic(
    target_factory: Callable[[], WorkloadLike] | WorkloadLike,
    sizes_mb: list[float],
    *,
    total_instructions: float,
    benchmark: str | None = None,
    config: MachineConfig | None = None,
    num_pirate_threads: int = 1,
    interval_instructions: float = DEFAULT_INTERVAL_INSTRUCTIONS,
    threshold: float = DEFAULT_FETCH_RATIO_THRESHOLD,
    target_warmup_fraction: float = 0.2,
    settle_fraction: float = 0.1,
    initial_warmup_instructions: float | None = None,
    schedule: str = "zigzag",
    seed: int = 0,
    quantum: float | None = None,
    compute_baseline: bool = True,
    retry_policy: RetryPolicy | None = None,
    telemetry=None,
) -> DynamicRunResult:
    """Measure every size in ``sizes_mb`` from one Target execution (Fig. 5).

    ``sizes_mb`` are Target-available sizes.  Two schedules implement the
    paper's "cycle through the full range of cache sizes":

    * ``"zigzag"`` (default): largest→smallest→largest Target cache.  Every
      size change is one grid step, so each warm-up gap (Pirate delta-sweep
      on the way down, Target warm-up on the way up) is proportional to one
      step — this keeps both the overhead and the cold-miss pollution at the
      paper's few-percent level even at this library's scaled-down interval
      lengths (DESIGN.md §6).
    * ``"sawtooth"``: largest→smallest, then wrap — the literal Fig. 5
      schedule; pays one large Target warm-up at each wrap.

    ``target_warmup_fraction`` sizes each Target warm-up gap as a fraction
    of the measurement interval.  ``settle_fraction`` inserts a short
    unmeasured co-run before each interval so the Pirate re-establishes any
    lines it lost while one side ran alone — at the paper's 100M-instruction
    intervals this settling is an invisible sliver of the interval; at this
    library's 1:100 scale it must be excluded explicitly or the Pirate's
    fetch ratio reports the re-claim churn instead of steady-state stealing.

    ``retry_policy`` routes invalid intervals through the retry engine:
    instead of flagging a poisoned interval and moving on, the harness
    re-warms (with exponential backoff), re-settles and re-measures the same
    size up to the policy's attempt budget, and the result's curve becomes a
    :class:`~repro.core.resilience.PartialCurve` with per-point quality
    metadata.
    """
    config = config or nehalem_config()
    tel = ensure_telemetry(telemetry)
    if not sizes_mb:
        raise MeasurementError("need at least one cache size")
    if schedule not in ("zigzag", "sawtooth"):
        raise MeasurementError(f"unknown schedule {schedule!r}")
    down = sorted(sizes_mb, reverse=True)  # pirate grows along this leg
    if schedule == "zigzag" and len(down) > 1:
        order = down + down[-2:0:-1]  # turn-points measured once per cycle
    else:
        order = down
    for s in down:
        if not 0 < s * MB <= config.l3.size:
            raise MeasurementError(f"target size {s}MB out of range")

    machine, target, pirate = _setup(
        target_factory, config, num_pirate_threads, seed, quantum
    )
    name = benchmark or target.workload.name
    target.instruction_limit = total_instructions
    monitor = PirateMonitor(pirate, threshold)
    start = machine.frontier

    samples: list[IntervalSample] = []
    cycles_completed = 0
    idx = 0
    warm_instr = target_warmup_fraction * interval_instructions
    # initial target warm-up at full cache before the first measurement
    # cycle: generous by default — the Target starts completely cold, and a
    # cold first down-leg would inflate the large-cache points of the curve
    if initial_warmup_instructions is None:
        initial_warmup_instructions = 8.0 * interval_instructions

    quality: dict[int, PointQuality] = {}

    def _measure_interval(stolen: int) -> IntervalSample:
        with tel.span(
            "interval", size_mb=(config.l3.size - stolen) / MB
        ) as sp:
            before = machine.counters.sample(target.core)
            t0 = machine.frontier
            monitor.begin()
            goal = target.instructions + interval_instructions
            machine.run(until=lambda: target.instructions >= goal or target.finished)
            verdict = monitor.end()
            delta = machine.counters.sample(target.core).delta(before)
            sp.add_cycles(machine.frontier - t0)
        tel.count("intervals_total")
        if not verdict.trustworthy:
            tel.count("invalid_intervals_total")
            tel.event(
                "interval_invalid",
                reason="pirate_hot",
                fetch_ratio=verdict.fetch_ratio,
            )
        return IntervalSample(
            target_cache_bytes=config.l3.size - stolen,
            target=delta,
            pirate_fetch_ratio=verdict.fetch_ratio,
            valid=verdict.trustworthy,
            start_cycle=t0,
            wall_cycles=machine.frontier - t0,
        )

    run_sp = tel.span("dynamic_run", benchmark=name, schedule=schedule)
    with run_sp:
        with tel.span("warmup", instructions=initial_warmup_instructions) as sp:
            t0 = machine.frontier
            goal = min(
                target.instructions + initial_warmup_instructions,
                total_instructions * 0.5,
            )
            machine.run_only(
                target, until=lambda: target.instructions >= goal or target.finished
            )
            sp.add_cycles(machine.frontier - t0)

        while not target.finished:
            size_mb = order[idx]
            stolen = config.l3.size - int(size_mb * MB)
            grew = stolen > pirate.working_set_bytes
            shrank = stolen < pirate.working_set_bytes
            pirate.set_working_set(stolen)
            if grew:
                # Pirate warms its new space while the Target is halted
                pirate.warm()
            elif shrank:
                # Target's cache grew: let it warm the new space alone
                goal = min(target.instructions + warm_instr, total_instructions)
                machine.run_only(
                    target, until=lambda: target.instructions >= goal or target.finished
                )
            if target.finished:
                break

            if settle_fraction > 0.0:
                tel.count(
                    "fetch_ratio_settle_ticks", settle_fraction * interval_instructions
                )
                goal = target.instructions + settle_fraction * interval_instructions
                machine.run(until=lambda: target.instructions >= goal or target.finished)
                if target.finished:
                    break

            sample = _measure_interval(stolen)
            attempts = 1
            if retry_policy is not None:
                # route the interval through the retry engine: re-warm with
                # backoff, re-settle, re-measure the same size until clean or
                # out of budget (no size substitution on the dynamic schedule —
                # the grid is the caller's contract)
                reasons: list[str] = []
                while not target.finished:
                    reason = classify_sample(sample, interval_instructions, retry_policy)
                    if reason is None or attempts >= retry_policy.max_attempts:
                        break
                    reasons.append(reason)
                    attempts += 1
                    rewarm = retry_policy.warmup_for(
                        max(warm_instr, 0.25 * interval_instructions), attempts
                    )
                    tel.count("retries_total")
                    tel.event(
                        "retry_escalation",
                        attempt=attempts - 1,
                        reasons=[reason],
                        next_warmup_instructions=rewarm,
                        degraded_next=False,
                    )
                    goal = min(target.instructions + rewarm, total_instructions)
                    machine.run_only(
                        target, until=lambda: target.instructions >= goal or target.finished
                    )
                    settle = max(
                        retry_policy.settle_for(interval_instructions, attempts),
                        settle_fraction * interval_instructions,
                    )
                    tel.count("fetch_ratio_settle_ticks", settle)
                    goal = target.instructions + settle
                    machine.run(until=lambda: target.instructions >= goal or target.finished)
                    if target.finished:
                        break
                    sample = _measure_interval(stolen)
                q = quality.get(sample.target_cache_bytes)
                ok = classify_sample(sample, interval_instructions, retry_policy) is None
                if q is None:
                    quality[sample.target_cache_bytes] = PointQuality(
                        requested_mb=size_mb,
                        measured_mb=size_mb,
                        attempts=attempts,
                        pirate_fetch_ratio=sample.pirate_fetch_ratio,
                        valid=ok,
                        reasons=reasons,
                    )
                else:
                    # a zigzag revisit is a fresh interval, not a retry: only the
                    # extra attempts beyond its first count toward the total
                    q.attempts += attempts - 1
                    q.reasons.extend(reasons)
                    q.valid = q.valid and ok
                    q.pirate_fetch_ratio = max(q.pirate_fetch_ratio, sample.pirate_fetch_ratio)
            if sample.target.instructions > 0:
                samples.append(sample)
            idx += 1
            if idx >= len(order):
                idx = 0
                cycles_completed += 1

        wall = machine.frontier - start
        run_sp.add_cycles(wall)
    if retry_policy is not None:
        curve = PartialCurve.from_samples(name, samples, config.core.clock_hz)
        curve.quality = quality
    else:
        curve = PerformanceCurve.from_samples(name, samples, config.core.clock_hz)
    baseline = 0.0
    if compute_baseline:
        with tel.span("baseline", instructions=target.instructions) as sp:
            baseline = run_target_alone(
                target_factory,
                target.instructions,
                config=config,
                seed=seed,
                quantum=quantum,
            )
            sp.add_cycles(baseline)
    return DynamicRunResult(
        benchmark=name,
        curve=curve,
        samples=samples,
        wall_cycles=wall,
        baseline_cycles=baseline,
        instructions=target.instructions,
        measurement_cycles_completed=cycles_completed,
    )
