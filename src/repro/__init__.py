"""repro — Cache Pirating: Measuring the Curse of the Shared Cache.

A full reproduction of Eklov, Nikoleris, Black-Schaffer & Hagersten (ICPP
2011) as a Python library.  The paper's technique — co-running a cache-
stealing *Pirate* with a *Target* application and reading both through
hardware performance counters to capture the Target's CPI, bandwidth and
fetch/miss ratios as a function of its available shared cache — is
implemented unmodified on top of a simulated Nehalem-class multicore
(DESIGN.md documents the hardware substitution).

Quick start::

    from repro import make_benchmark, measure_curve_dynamic

    curve = measure_curve_dynamic(
        lambda: make_benchmark("omnetpp"),
        sizes_mb=[8.0, 6.0, 4.0, 2.0, 1.0, 0.5],
        total_instructions=16e6,
    ).curve
    print(curve.format_table())

Packages: ``repro.caches`` (cache models), ``repro.hardware`` (the machine),
``repro.workloads`` (synthetic SPEC-like suite), ``repro.core`` (the
pirating technique and its retry/recovery engine), ``repro.observability``
(run telemetry: spans, metrics, JSONL export), ``repro.faults``
(process-level chaos for testing sweep execution), ``repro.tracing``
(Pin/Gprof stand-ins), ``repro.reference`` (trace-driven validation
simulator), ``repro.analysis`` (scaling prediction, error metrics),
``repro.experiments`` (one module per paper table/figure).
"""

from .config import CacheConfig, CoreConfig, MachineConfig, nehalem_config, tiny_config
from .errors import (
    ConfigError,
    DegradedMeasurement,
    MeasurementError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
    TraceError,
)
from .hardware import CounterSample, Machine
from .workloads import (
    BENCHMARK_NAMES,
    TargetSpec,
    benchmark_spec,
    benchmark_target,
    make_benchmark,
    make_cigar,
    random_micro,
    sequential_micro,
)
from .core import (
    DEFAULT_FETCH_RATIO_THRESHOLD,
    DynamicRunResult,
    IntervalSample,
    PartialCurve,
    PerformanceCurve,
    Pirate,
    PointQuality,
    RetryPolicy,
    SweepCache,
    SweepSpec,
    choose_pirate_threads,
    derive_point_seed,
    measure_between_markers,
    measure_curve_dynamic,
    measure_curve_fixed,
    measure_curve_resilient,
    measure_fixed_size,
    measure_point_resilient,
    parallel_map,
    run_sweep,
)
from .observability import (
    NULL_TELEMETRY,
    Telemetry,
    TelemetryFragment,
    format_report,
    read_jsonl,
    summarize,
    write_jsonl,
)
from .tracing import AddressTrace, capture_trace, profile_workload
from .reference import apply_offset, reference_curve, simulate_trace
from .analysis import (
    curve_errors,
    measure_throughput,
    predict_throughput,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "CacheConfig",
    "CoreConfig",
    "MachineConfig",
    "nehalem_config",
    "tiny_config",
    # errors
    "ReproError",
    "ConfigError",
    "SimulationError",
    "MeasurementError",
    "TraceError",
    "RetryExhaustedError",
    "DegradedMeasurement",
    # machine
    "Machine",
    "CounterSample",
    # workloads
    "BENCHMARK_NAMES",
    "benchmark_spec",
    "make_benchmark",
    "make_cigar",
    "random_micro",
    "sequential_micro",
    "TargetSpec",
    "benchmark_target",
    # the technique
    "DEFAULT_FETCH_RATIO_THRESHOLD",
    "Pirate",
    "PerformanceCurve",
    "IntervalSample",
    "DynamicRunResult",
    "measure_fixed_size",
    "measure_curve_fixed",
    "measure_curve_dynamic",
    "measure_between_markers",
    "choose_pirate_threads",
    # parallel sweep execution
    "SweepSpec",
    "SweepCache",
    "derive_point_seed",
    "run_sweep",
    "parallel_map",
    # resilience
    "RetryPolicy",
    "PartialCurve",
    "PointQuality",
    "measure_point_resilient",
    "measure_curve_resilient",
    # observability
    "Telemetry",
    "TelemetryFragment",
    "NULL_TELEMETRY",
    "write_jsonl",
    "read_jsonl",
    "summarize",
    "format_report",
    # tracing & reference
    "AddressTrace",
    "capture_trace",
    "profile_workload",
    "simulate_trace",
    "reference_curve",
    "apply_offset",
    # analysis
    "curve_errors",
    "measure_throughput",
    "predict_throughput",
]
