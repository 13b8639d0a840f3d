"""Cache Pirating — the paper's contribution (§II).

This package implements the measurement technique itself, exactly as the
paper describes it, on top of the simulated machine:

* :mod:`repro.core.pirate` — the Pirate: a cache-stealing workload sweeping
  its working set linearly at the highest possible rate, optionally split
  across several pinned threads (§II-B, §II-C2),
* :mod:`repro.core.monitor` — the fetch-ratio monitor and the 3% threshold
  that bounds how much of the Pirate's working set may have leaked (§III-C),
* :mod:`repro.core.harness` — fixed-size co-run measurement: one execution
  per cache size (the baseline methodology of §III-D),
* :mod:`repro.core.threadprobe` — the CPI probe that decides how many Pirate
  threads are safe (§III-C's <1% slowdown rule),
* :mod:`repro.core.dynamic` — dynamic working-set adjustment: all cache
  sizes from a single Target execution with warm-up gaps (Fig. 5, §II-C1),
* :mod:`repro.core.curves` — performance-vs-cache-size curve containers,
* :mod:`repro.core.attach` — attach/detach at Target instruction markers,
  the feature used to align Pirate data with reference traces (§III-A),
* :mod:`repro.core.bandit` — the *Bandwidth Bandit* extension the paper's
  conclusion proposes as future work: performance as a function of available
  off-chip bandwidth instead of cache capacity,
* :mod:`repro.core.resilience` — the retry/recovery engine: invalid or
  implausible intervals are re-measured with escalating warm-up, unmeasured
  settle co-runs and (last resort) degraded steal sizes, yielding a
  :class:`~repro.core.resilience.PartialCurve` with per-point quality,
* :mod:`repro.core.parallel` — the one sweep executor: independent
  ``(target, cache_size)`` points fanned out over a process pool with
  deterministic per-point seeds and an on-disk result cache, bit-identical
  to serial execution for any worker count; a ``SupervisorPolicy`` adds
  per-point watchdogs, bounded retry and explicit quarantine, proven under
  injected chaos,
* :mod:`repro.core.journal` — append-only JSONL write-ahead run journals, so
  ``--resume`` continues a SIGKILLed sweep without re-measuring finished
  points.
"""

from .curves import IntervalSample, PerformanceCurve
from .pirate import Pirate, PirateThreadWorkload
from .monitor import PirateMonitor, DEFAULT_FETCH_RATIO_THRESHOLD
from .harness import FixedSizeResult, measure_curve_fixed, measure_fixed_size
from .threadprobe import ThreadProbeResult, choose_pirate_threads
from .dynamic import DynamicRunResult, measure_curve_dynamic
from .attach import AttachWindow, measure_between_markers
from .bandit import Bandit, BanditCurve, BanditWorkload, measure_bandwidth_curve
from .multitarget import (
    MultiTargetProbe,
    MultiTargetResult,
    choose_pirate_threads_multitarget,
    make_parallel_target,
    measure_multithreaded,
)
from .resilience import (
    PartialCurve,
    PointQuality,
    RetryEngine,
    RetryPolicy,
    classify_sample,
    interval_sanity,
    measure_point_resilient,
)
from .parallel import (
    PointResult,
    SupervisorPolicy,
    SweepCache,
    SweepPoint,
    SweepSpec,
    SweepStats,
    derive_point_seed,
    measure_sweep_point,
    parallel_map,
    point_cache_key,
    quarantined_result,
    result_from_payload,
    result_to_payload,
    run_sweep,
    sweep_spec_sha,
)
from .journal import (
    JournalState,
    RunJournal,
    journal_path,
    new_run_id,
    read_journal_records,
)

__all__ = [
    "IntervalSample",
    "PerformanceCurve",
    "Pirate",
    "PirateThreadWorkload",
    "PirateMonitor",
    "DEFAULT_FETCH_RATIO_THRESHOLD",
    "FixedSizeResult",
    "measure_fixed_size",
    "measure_curve_fixed",
    "ThreadProbeResult",
    "choose_pirate_threads",
    "DynamicRunResult",
    "measure_curve_dynamic",
    "AttachWindow",
    "measure_between_markers",
    "Bandit",
    "BanditWorkload",
    "BanditCurve",
    "measure_bandwidth_curve",
    "MultiTargetProbe",
    "MultiTargetResult",
    "make_parallel_target",
    "measure_multithreaded",
    "choose_pirate_threads_multitarget",
    "RetryPolicy",
    "RetryEngine",
    "PartialCurve",
    "PointQuality",
    "classify_sample",
    "interval_sanity",
    "measure_point_resilient",
    "SweepSpec",
    "SweepPoint",
    "SweepStats",
    "SweepCache",
    "PointResult",
    "derive_point_seed",
    "point_cache_key",
    "measure_sweep_point",
    "result_to_payload",
    "result_from_payload",
    "sweep_spec_sha",
    "run_sweep",
    "parallel_map",
    "SupervisorPolicy",
    "quarantined_result",
    "RunJournal",
    "JournalState",
    "journal_path",
    "new_run_id",
    "read_journal_records",
]
