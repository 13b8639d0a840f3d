"""Shared golden-regression scenarios.

One place defines exactly what gets measured, so the checked-in goldens
(``tests/goldens/*.json``), the regression test (``tests/test_golden.py``)
and the regeneration script (``scripts/regen_goldens.py``) can never drift
apart.  The scenarios are deliberately tiny — a few sweep points at short
intervals — because goldens assert *bit-exactness*, not calibration, and
must stay fast enough to run on every commit.
"""

from __future__ import annotations

from repro.core import measure_curve_fixed
from repro.experiments import fig4_micro
from repro.experiments.scale import Scale
from repro.observability import Telemetry
from repro.observability.metrics import base_name, metric_key
from repro.validation import ValidationTier, grade_surrogate, validate_suite
from repro.workloads import TargetSpec

#: shrunken scale for the fig4 golden: three sizes, short everything
GOLDEN_SCALE = Scale(
    name="golden",
    sizes_mb=(0.5, 2.0, 8.0),
    interval_instructions=60_000,
    dynamic_total_instructions=1_000_000,
    trace_lines=50_000,
    throughput_instructions=100_000,
    reference_benchmarks=(),
    curve_benchmarks=(),
    steal_benchmarks=(),
    overhead_benchmarks=(),
    table3_intervals=(),
)


def fixed_curve_scenario(workers: int = 0) -> dict:
    """One ``measure_curve_fixed`` sweep, serialized to JSON-stable rows.

    ``workers`` must not change the output — ``test_golden.py`` exploits
    that to check the golden against the pooled path too.
    """
    curve = measure_curve_fixed(
        TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7),
        [8.0, 4.0, 1.0],
        benchmark="golden.fixed",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
        workers=workers,
    )
    return {"benchmark": curve.benchmark, "rows": curve.to_rows()}


def fig4_scenario() -> dict:
    """The Fig. 4 micro-benchmark comparison at golden scale."""
    result = fig4_micro.run(GOLDEN_SCALE, seed=3, workers=0, working_set_mb=1.0)
    return {
        "comparisons": [
            {"name": c.name, "rows": c.rows()} for c in result.comparisons
        ]
    }


def fig4_telemetry_scenario() -> dict:
    """The telemetry summary of the Fig. 4 golden run, deterministic form.

    ``deterministic=True`` zeroes every wall-clock-derived field, so the
    summary is a pure function of the measurement inputs: counter values,
    event counts, span counts and their simulated-cycle totals must all
    reproduce bit-for-bit.
    """
    tel = Telemetry()
    fig4_micro.run(GOLDEN_SCALE, seed=3, workers=0, working_set_mb=1.0, telemetry=tel)
    return _engine_neutral(tel.summary(deterministic=True))


#: telemetry that depends on which engine ran (kernel mode, C compiler,
#: REPRO_CEXT), not on the measurement: the golden must hold under every one
_ENGINE_EVENTS = ("kernel_degraded",)


def _engine_neutral(summary: dict) -> dict:
    """Fold the engine label out of ``kernel_chunks_total`` (chunks per path
    are deterministic, their split over engines is not) and drop the
    engine-dependent events."""
    meas = summary["measurement"]
    counters: dict[str, float] = {}
    for key, value in meas["counters"].items():
        name = base_name(key)
        if name == "kernel_chunks_total":
            path = key[key.index("path=") + 5 : -1]
            key = metric_key(name, {"path": path})
        counters[key] = counters.get(key, 0.0) + value
    meas["counters"] = counters
    for name in _ENGINE_EVENTS:
        meas["events"].pop(name, None)
    return summary


#: shrunken validation tier for the conformance golden: two sizes, tiny trace
GOLDEN_TIER = ValidationTier(
    name="golden",
    sizes_mb=(2.0, 8.0),
    trace_lines=30_000,
    warm_start_instructions=500_000.0,
    profile_instructions=500_000.0,
)


def conformance_scenario(workers: int = 0) -> dict:
    """One differential validation run, serialized as its full report.

    Locks down the whole oracle — markers, trace, reference replay,
    calibration offset, per-size pirate runs, verdicts — as one JSON tree.
    ``workers`` must not change the output (serial == parallel conformance).
    """
    suite = validate_suite(["povray"], GOLDEN_TIER, seed=5, workers=workers)
    return suite.to_dict()


def surrogate_scenario() -> dict:
    """The analytic engine, locked down end to end.

    One surrogate curve (profile -> histogram -> prediction -> synthetic
    counters, with per-point quality labels) plus one grading run against
    the reference simulator — any change to the reuse-distance kernels,
    the Che solver, the error estimate or the grading pipeline shows up
    here as an explainable diff.
    """
    curve = measure_curve_fixed(
        TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7),
        [8.0, 4.0, 1.0],
        benchmark="golden.surrogate",
        engine="surrogate",
        seed=11,
    )
    grade = grade_surrogate("povray", GOLDEN_TIER, seed=5)
    return {
        "curve": {"benchmark": curve.benchmark, "rows": curve.to_rows()},
        "quality": {str(i): q.label for i, q in sorted(curve.quality.items())},
        "grade": grade.to_dict(),
    }


#: the grid golden's config: two zoo workloads across two policies and both
#: engine tiers, tiny sweeps — locks the compiler (cell keys and ordering)
#: and the runner (every row) down as one JSON tree
GOLDEN_GRID = {
    "name": "golden_grid",
    "seed": 17,
    "axes": {
        "workload": [
            {"family": "zipf", "working_set_mb": 1.0, "alpha": 1.0},
            {"family": "sharing", "working_set_mb": 1.0, "shared_fraction": 0.5},
        ],
        "policy": ["nru", "lru"],
        "pirate": [{"threads": 1, "sizes_mb": [2.0, 8.0]}],
        "engine": ["measure", "surrogate"],
    },
    "sweep": {"interval_instructions": 40000.0, "n_intervals": 1},
}


def grid_scenario(workers: int = 0) -> dict:
    """A scenario grid compiled and run end to end, rows plus cell keys.

    ``workers`` must not change the output (serial == parallel grids).
    """
    from repro.scenarios import compile_grid, run_grid

    grid = compile_grid(GOLDEN_GRID)
    result = run_grid(grid, workers=workers)
    return {
        "cells": [c.key for c in grid.cells],
        "rows": result.rows(),
    }


def _deterministic_records(tel: Telemetry) -> list[dict]:
    """A telemetry stream with its wall-clock fields dropped: span and event
    names, attributes, nesting and simulated cycles, in recorded order."""
    return [{k: v for k, v in r.items() if k != "wall_s"} for r in tel.spans.records]


def harnesses_scenario() -> dict:
    """Every harness that drives the machine outside the fixed sweep.

    The dynamic and multithreaded harnesses (with and without a retry
    policy, their telemetry streams included), the Bandit's bandwidth
    curve, the throughput-scaling measurement, the reference calibration's
    baseline fetch ratio and the phase profiler, each at a tiny size.
    Every number here depends on where the quantum loop stops, so a change
    to the machine's stop conditions that moves any of them shows up as a
    diff.
    """
    from dataclasses import asdict

    from repro.analysis.scaling import measure_throughput
    from repro.core import RetryPolicy, measure_curve_dynamic
    from repro.core.bandit import measure_bandwidth_curve
    from repro.core.multitarget import make_parallel_target, measure_multithreaded
    from repro.reference.calibrate import measure_baseline_fetch_ratio
    from repro.tracing.profiler import profile_workload
    from repro.units import MB
    from repro.workloads import make_benchmark
    from repro.workloads.phased import PhasedWorkload

    def mcf():
        return make_benchmark("mcf", seed=1)

    def dynamic(policy):
        tel = Telemetry()
        res = measure_curve_dynamic(
            mcf,
            [8.0, 4.0, 1.0],
            total_instructions=600_000.0,
            interval_instructions=60_000.0,
            seed=2,
            retry_policy=policy,
            telemetry=tel,
        )
        out = asdict(res)
        out["curve"] = res.curve.to_rows()
        out["quality"] = {
            str(k): asdict(q) for k, q in sorted(getattr(res.curve, "quality", {}).items())
        }
        out["telemetry"] = _deterministic_records(tel)
        return out

    def multithreaded(policy):
        tel = Telemetry()
        res = measure_multithreaded(
            make_parallel_target("mcf", 2, seed=1),
            int(7.5 * MB),
            interval_instructions=50_000.0,
            seed=3,
            retry_policy=policy,
            telemetry=tel,
        )
        return {**asdict(res), "telemetry": _deterministic_records(tel)}

    def gcc():
        # the suite's gcc with short phases, so the profile crosses all three
        phases = make_benchmark("gcc", seed=1).phases
        return PhasedWorkload("gcc", [(sub, 150_000.0) for sub, _ in phases])

    def pair(i):
        return make_benchmark(("lbm", "mcf")[i], instance=i)

    retry = RetryPolicy(max_attempts=3, degrade_after_attempt=10**6)
    bandit = measure_bandwidth_curve(
        mcf, [20.0, 200.0], interval_instructions=50_000.0, warmup_instructions=50_000.0
    )
    return {
        "dynamic": dynamic(None),
        "dynamic_retry": dynamic(retry),
        "multithreaded": multithreaded(None),
        "multithreaded_retry": multithreaded(retry),
        "bandwidth": asdict(bandit),
        "throughput": [asdict(measure_throughput(pair, n, 200_000.0)) for n in (1, 2)],
        "baseline_fetch_ratio": measure_baseline_fetch_ratio(mcf, 200_000.0),
        "profile": asdict(profile_workload(gcc, 500_000.0)),
    }


def service_scenario() -> dict:
    """One scripted service session, every envelope and event pinned.

    Locks the wire protocol down as data: the health/submit/status/fetch
    envelopes, the full watch event stream (types, seqs, states), the
    dedup reply for a resubmit, and the stats counters after a known
    sequence of requests.  Volatile wall-clock fields are zeroed by
    :func:`~repro.service.normalize_envelope`; everything else — content
    keys, run ids, rows, stats — is a pure function of the job spec, so
    any protocol change shows up here as an explainable diff.
    """
    import tempfile
    from pathlib import Path

    from repro.service import JobSpec, ServerThread, normalize_envelope
    from repro.workloads import TargetSpec

    job = JobSpec(
        workload=TargetSpec(kind="micro.random", working_set_mb=1.0, seed=7),
        sizes_mb=(2.0, 8.0),
        benchmark="golden.service",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with ServerThread(root / "state", root / "svc.sock") as srv:
            client = srv.client(client_id="golden")
            health = client.health()
            submitted = client.submit(job)
            fetched = client.wait(submitted["key"])
            events = list(client.watch(submitted["key"]))
            status = client.status(submitted["key"])
            resubmitted = client.submit(job)
            stats = client.stats()
    return normalize_envelope(
        {
            "health": health,
            "submit": submitted,
            "events": events,
            "status": status,
            "resubmit": resubmitted,
            "fetch": fetched,
            "stats": stats,
        }
    )


#: golden file stem -> scenario builder
SCENARIOS = {
    "fixed_curve": fixed_curve_scenario,
    "fig4_micro": fig4_scenario,
    "fig4_telemetry": fig4_telemetry_scenario,
    "conformance": conformance_scenario,
    "surrogate": surrogate_scenario,
    "grid": grid_scenario,
    "service": service_scenario,
    "harnesses": harnesses_scenario,
}
