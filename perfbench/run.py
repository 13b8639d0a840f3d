#!/usr/bin/env python3
"""End-to-end benchmark of the cache-pirating package, with layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends the first half of ``--seconds`` untraced and the
second half with spans around every layer's entry points
(:mod:`tracer`), and reports the per-layer metrics, the tracing overhead
and whether both halves produced the same simulated outcomes.

Human-readable lines (prefixed ``#``) come first; the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workload definitions and input sizes live in
``perfbench/spec.json``; see ``perfbench/README.md`` for the metrics and
the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for stores, journals, sockets and the C build, inside the
#: checkout and ignored by git; each run works in its own subdirectory
WORK_ROOT = ROOT / ".perfbench"

#: environment the package reads; cleared so a user's shell cannot change
#: what is measured (REPRO_CEXT_DIR is then pointed at the run's own dir)
HERMETIC_VARS = (
    "REPRO_KERNEL",
    "REPRO_CEXT",
    "REPRO_CEXT_DIR",
    "REPRO_SERVICE_CHAOS",
    "REPRO_CHAOS",
)


@dataclass(slots=True)
class Rec:
    index: int
    #: CPU seconds (the gated timings)
    seconds: float
    #: wall seconds (reported, not gated)
    wall: float
    ok: bool
    #: sha256 of the operation's canonical outcome (compact: runs hold
    #: thousands of operations, and the benchmark's own heap must not grow
    #: with the program's speed)
    fingerprint: bytes
    #: states ``seconds`` at the reference host speed (:mod:`hostspeed`)
    factor: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.factor


@dataclass
class Phase:
    recs: list[Rec] = field(default_factory=list)
    #: CPU seconds spent inside batches (checks excluded)
    busy: float = 0.0
    #: the same, at the reference host speed
    busy_ref: float = 0.0
    #: wall seconds spent inside batches
    wall: float = 0.0
    #: (ops done, cumulative simulated instructions) after each batch
    sim_instr: list[tuple[int, float]] = field(default_factory=list)
    #: tracer counters after the fingerprint prefix
    prefix_counts: dict | None = None

    @property
    def ok_seconds(self) -> list[float]:
        """Correct operations' CPU seconds at the reference host speed."""
        return [r.ref_seconds for r in self.recs if r.ok]

    @property
    def ok_walls(self) -> list[float]:
        return [r.wall for r in self.recs if r.ok]

    @property
    def ops_per_s(self) -> float:
        return len(self.ok_seconds) / self.busy_ref if self.busy_ref > 0 else 0.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true",
        help="shrunken inputs and one set-up (the self-test)",
    )
    ap.add_argument(
        "--plant", choices=("scalar-mismatch", "tamper-store"), default=None,
        help="plant a defect the output checks must catch (the self-test)",
    )
    ap.add_argument(
        "--setup-only", metavar="DIR", default=None,
        help="only run the workload's set-up in DIR and exit (a set-up probe)",
    )
    return ap.parse_args(argv)


def hermetic_environment(work: Path) -> dict[str, str]:
    """Clear the package's environment knobs; returns what was cleared."""
    recorded = {k: os.environ.pop(k) for k in HERMETIC_VARS if k in os.environ}
    os.environ["REPRO_CEXT_DIR"] = str(work / "cext")
    tmp = work / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )
    return recorded


def workload_params(args, spec: dict) -> dict:
    params = dict(spec["workloads"][args.workload])
    if args.tiny:
        params.update(params.get("tiny", {}))
    return params


def setup_seconds(args, work: Path, reference_s: float) -> tuple[float, float, float]:
    """(CPU at the reference host speed, CPU, wall) seconds of one set-up
    as a user pays it: a fresh interpreter imports the package, loads the
    (already built) C lowering and runs the workload's set-up in ``work``.
    A separate process, so that repeated set-ups leave nothing behind in
    the measured one; its CPU time includes the processes it waited for
    (the grid's pool).  The host's speed is calibrated just before and
    just after it."""
    import hostspeed

    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(work),
    ]
    if args.tiny:
        cmd.append("--tiny")
    kernel_s = [hostspeed.measure() for _ in range(3)]
    r0, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=300, stdout=subprocess.DEVNULL)
    r1, t1 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    kernel_s += [hostspeed.measure() for _ in range(3)]
    cpu = r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime
    return cpu * reference_s / statistics.median(kernel_s), cpu, t1 - t0


def setup_only(args, spec: dict, work: Path) -> int:
    sys.path.insert(0, str(SRC))
    from repro.kernels import cext

    import suite

    cext.load()
    nproc = len(os.sched_getaffinity(0))
    params = workload_params(args, spec)
    load = suite.LOADS[args.workload](params, args.seed, nproc=nproc, plant=None)
    try:
        load.setup(work)
    finally:
        load.close()
    return 0


def _set_affinity(cpus) -> None:
    """Set the CPU affinity of every thread of this process (threads the
    workload's set-up started too: ``sched_setaffinity(0, ...)`` moves only
    the calling thread)."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:  # the thread has ended
            pass


@contextmanager
def pinned():
    """Pin the process, all its threads, to one CPU while timing.  Every
    timed operation is serial; on a shared VM a hand-off between threads
    on different CPUs (the service's client, event loop and executor)
    waits for a vCPU wake-up whose latency swings from run to run, and
    where the scheduler happens to put a server thread changed the
    service's CPU seconds per op by 25% from run to run."""
    cpus = os.sched_getaffinity(0)
    try:
        _set_affinity({min(cpus)})
    except OSError:  # not permitted here: measure unpinned and say so
        yield "unpinned"
        return
    try:
        yield f"pinned to cpu {min(cpus)}"
    finally:
        _set_affinity(cpus)


def timed_phase(load, seconds: float, min_ops: int, speed, tracer=None) -> Phase:
    """Run batches for ``seconds`` (and at least ``min_ops`` operations),
    then on to the end of the load's current round, so that every phase
    holds whole rounds and the same mix of operations.  Between batches the
    host's speed is calibrated (``speed``, a :class:`hostspeed.HostSpeed`);
    afterwards each batch's times are stated at the reference speed.  The
    load's final check is left to the caller, so that it runs after the
    tracer is uninstalled and never counts as traced work."""
    from suite import clock

    phase = Phase()
    #: (first op, ops, wall start, wall end, CPU seconds) of each batch
    batches = []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(phase.recs) < min_ops
        or len(phase.recs) % load.round_ops
    ):
        speed.calibrate()
        first = len(phase.recs)
        t0, c0 = time.perf_counter(), clock()
        timed = load.batch(first)
        busy, t1 = clock() - c0, time.perf_counter()
        phase.busy += busy
        phase.wall += t1 - t0
        batches.append((first, len(timed), t0, t1, busy))
        verdicts = load.check(first, [res for *_, res in timed])
        for n, ((dt, wall, res), ok) in enumerate(zip(timed, verdicts)):
            fp = hashlib.sha256(load.fingerprint(res).encode()).digest()
            phase.recs.append(Rec(first + n, dt, wall, ok, fp))
        if tracer is not None:
            counts = tracer.totals()[1]
            phase.sim_instr.append(
                (len(phase.recs), counts.get("hardware.sim_instructions", 0.0))
            )
            if phase.prefix_counts is None and len(phase.recs) >= min_ops:
                phase.prefix_counts = counts
    speed.calibrate(force=True)
    for first, ops, t0, t1, busy in batches:
        factor = speed.factor(t0, t1)
        phase.busy_ref += busy * factor
        for rec in phase.recs[first:first + ops]:
            rec.factor = factor
    return phase


def final_check(load, phase: Phase) -> None:
    """Mark the operations the load's after-phase check fails."""
    failed = load.final_check(phase.recs)
    for rec in phase.recs:
        if rec.index in failed:
            rec.ok = False


def tail(values: list[float], percentile: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the workload's fixed
    percentile, or at the highest one that still leaves ten samples beyond
    it (never below the median) when the run holds too few operations."""
    xs = sorted(values)
    n = len(xs)
    rank = math.ceil(percentile / 100.0 * n)
    if n - rank < 10:
        rank = max(n - 10, math.ceil((n + 1) / 2))
        percentile = 100.0 * rank / n
    return xs[rank - 1], percentile, n - rank


def digest(phase: Phase, k: int) -> str:
    h = hashlib.sha256()
    for rec in phase.recs[:k]:
        h.update(rec.fingerprint)
    return h.hexdigest()[:16]


def per_layer(load, untraced: Phase, traced: Phase, tracer) -> dict[str, float]:
    """The per-layer metrics of a traced phase (per operation, except the
    simulated counts, which cover the fingerprint prefix)."""
    spans, counts = tracer.totals()
    n = max(len(traced.recs), 1)
    prefix = traced.prefix_counts or {}

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ns_per_line(name, lines_key):
        lines = counts.get(lines_key, 0.0)
        return self_s(name) / lines * 1e9 if lines else 0.0

    m = {
        "workloads.chunk.calls": calls("workloads.chunk") / n,
        "workloads.chunk.lines": counts.get("workloads.chunk.lines", 0.0) / n,
        "workloads.chunk.self_s": self_s("workloads.chunk") / n,
    }
    for engine in ("full", "l3only"):
        key = f"caches.{engine}"
        m[f"{key}.lines"] = counts.get(f"{key}.lines", 0.0) / n
        m[f"{key}.self_s"] = self_s(key) / n
        m[f"{key}.ns_per_line"] = ns_per_line(key, f"{key}.lines")
    for name in (
        "caches.l1_hits", "caches.l2_hits", "caches.l3_hits", "caches.l3_misses",
        "caches.l3_fetches", "caches.prefetch_fills", "caches.dram_writebacks",
        "hardware.quanta", "hardware.sim_cycles", "hardware.sim_instructions",
        "core.invalid_intervals",
    ):
        m[name] = prefix.get(name, 0.0)
    m["hardware.sim_minstr_per_s"] = sim_minstr_per_s(untraced, traced)
    m["hardware.timing.self_s"] = self_s("hardware.timing") / n
    m["hardware.machine.self_s"] = self_s("hardware.machine") / n
    m["core.harness.self_s"] = self_s("core.harness") / n
    m["core.pirate.self_s"] = self_s("core.pirate") / n
    loads = counts.get("core.store.loads", 0.0)
    m["core.store.loads"] = loads / n
    m["core.store.load_s"] = self_s("core.store.load") / n
    m["core.store.writes"] = counts.get("core.store.writes", 0.0) / n
    m["core.store.write_s"] = total("core.store.write") / n
    m["core.store.hit_ratio"] = counts.get("core.store.hits", 0.0) / loads if loads else 0.0
    m["core.payload.decode_s"] = total("core.payload.decode") / n
    m["core.parallel.self_s"] = self_s("core.parallel") / n
    for stage in ("compile", "cell", "run", "emit"):
        m[f"scenarios.{stage}.self_s"] = self_s(f"scenarios.{stage}") / n
    m["surrogate.self_s"] = self_s("surrogate") / n
    m["reference.lines"] = counts.get("reference.lines", 0.0) / n
    m["reference.self_s"] = self_s("reference") / n
    m["reference.ns_per_line"] = ns_per_line("reference", "reference.lines")
    m["tracing.capture.self_s"] = self_s("tracing.capture") / n
    m["tracing.profile.self_s"] = self_s("tracing.profile") / n
    m["validation.self_s"] = self_s("validation") / n
    m["validation.max_fr_err_pct"] = getattr(load, "max_fr_err_pct", 0.0)
    submits = counts.get("service.submits", 0.0)
    m["service.requests"] = counts.get("service.requests", 0.0) / n
    m["service.dedup_ratio"] = counts.get("service.dedup", 0.0) / submits if submits else 0.0
    m["service.handler.self_s"] = self_s("service.handler") / n
    m["service.store.get_s"] = total("service.store.get") / n
    m["service.wire.self_s"] = (total("service.client") - total("service.handler")) / n
    m["trace_overhead"] = trace_overhead(untraced, traced)
    return m


def trace_overhead(untraced: Phase, traced: Phase) -> float:
    """Traced against untraced ops per second, over the operations both
    halves ran (the same seeded sequence, so the same work)."""
    n = min(len(untraced.recs), len(traced.recs))
    slow = sum(r.seconds for r in traced.recs[:n])
    return sum(r.seconds for r in untraced.recs[:n]) / slow if slow > 0 else 0.0


def sim_minstr_per_s(untraced: Phase, traced: Phase) -> float:
    """Simulated Target+Pirate instructions per untraced host second, over
    the operations both halves ran (the traced half counts instructions,
    the untraced half times the same operations)."""
    n = min(len(untraced.recs), len(traced.recs))
    instr, n_done = 0.0, 0
    for done, cumulative in traced.sim_instr:
        if done > n:
            break
        instr, n_done = cumulative, done
    if not instr:
        return 0.0
    seconds = sum(r.seconds for r in untraced.recs[:n_done])
    return instr / seconds / 1e6 if seconds > 0 else 0.0


def run(args, spec: dict, contract: dict, work: Path, cleared: dict) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(SRC))
    import numpy

    from repro.kernels import cext

    import suite
    from hostspeed import HostSpeed
    from tracer import Tracer

    t0 = time.perf_counter()
    lowering = "c" if cext.load() is not None else "python"
    build_s = time.perf_counter() - t0
    nproc = len(os.sched_getaffinity(0))
    params = workload_params(args, spec)
    k = int(params["fingerprint_ops"])
    load = suite.LOADS[args.workload](params, args.seed, nproc=nproc, plant=args.plant)
    reference_s = float(spec["host_speed"]["reference_s"])
    speed = HostSpeed(reference_s)
    notes = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"host python={platform.python_version()} numpy={numpy.__version__} "
        f"lowering={lowering} nproc={nproc}",
        "cleared "
        + (", ".join(f"{var}={val}" for var, val in cleared.items()) or "nothing"),
    ]
    try:
        # the state the timed phase runs against, set up once in-process;
        # setup_s is the median of separate set-up probes, half of them
        # taken after the timed phase: a shared VM's speed drifts over
        # seconds, and probes spread over the run sample more of it
        t0 = time.perf_counter()
        load.setup(_fresh(work / "state"))
        state_s = time.perf_counter() - t0
        reps = 1 if (args.trace or args.tiny) else int(params["setup_reps"])
        setups = [
            setup_seconds(args, _fresh(work / f"probe{i}"), reference_s)
            for i in range((reps + 1) // 2)
        ]
        # one untimed batch finishes the package's lazy set-up (kernel
        # imports, router cost tables) before either phase is timed; its
        # answers are checked like any other
        with pinned() as pinning:
            notes.append(f"timed phases {pinning}")
            t0 = time.perf_counter()
            warm = load.batch(0)
            warm_s = time.perf_counter() - t0
            warm_failed = load.check(0, [res for *_, res in warm]).count(False)
            if args.trace:
                half = args.seconds / 2
                untraced = timed_phase(load, half, k, speed)
                tracer = Tracer(suite.clock)
                with tracer.installed():
                    traced = timed_phase(load, half, k, speed, tracer)
                phases = [untraced, traced]
            else:
                phases = [timed_phase(load, args.seconds, k, speed)]
        for phase in phases:
            final_check(load, phase)
        if args.trace:
            tracer.write(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        load.close()
    setups += [
        setup_seconds(args, _fresh(work / f"probe{i}"), reference_s)
        for i in range(len(setups), reps)
    ]

    recs = [r for p in phases for r in p.recs]
    attempted = len(recs) + len(warm)
    failed = warm_failed + sum(1 for r in recs if not r.ok)
    digests = [digest(p, k) for p in phases]
    mismatched = 0
    if args.trace:
        untraced, traced = phases
        mismatched = sum(
            a.fingerprint != b.fingerprint for a, b in zip(untraced.recs, traced.recs)
        )
        failed += mismatched
    correct = failed == 0
    setup_s = statistics.median(ref for ref, _, _ in setups)
    notes.append(
        f"host speed: calibration kernel {speed.median_s() * 1e3:.3f} ms CPU (median of "
        f"{len(speed.times)}; reference {reference_s * 1e3:.3f} ms); times below are CPU "
        f"seconds at the reference speed"
    )
    notes.append(
        f"setup_s={setup_s:.4f} s (CPU, median of {len(setups)} fresh processes; as "
        f"measured {statistics.median(cpu for _, cpu, _ in setups):.4f} s; wall "
        f"{statistics.median(w for *_, w in setups):.4f} s; in-process set-up "
        f"{state_s:.3f} s; C build {build_s:.3f} s; warm-up op {warm_s:.3f} s)"
    )
    notes.append(
        f"error_rate={failed / attempted:.4f} ({failed}/{attempted} ops failed"
        + (f", {mismatched} traced/untraced mismatches" if args.trace else "")
        + ")"
    )
    notes.append(f"digest={' '.join(digests)} (first {k} ops, per phase)")
    if hasattr(load, "max_fr_err_pct"):
        notes.append(f"max_fr_err_pct={load.max_fr_err_pct:.4f} pp (bound 3)")

    units = {
        m["name"]: m["unit"]
        for m in contract["per_layer" if args.trace else "end_to_end"]
    }
    if args.trace:
        metrics = per_layer(load, untraced, traced, tracer)
        out = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
        for name, value in metrics.items():
            notes.append(f"{name:28s} {value:.6g} {units[name]}")
    else:
        phase = phases[0]
        ok = phase.ok_seconds or [r.ref_seconds for r in phase.recs]
        tail_value, pct, beyond = tail(ok, float(params["tail_percentile"]))
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(ok),
            "op_tail_s": tail_value,
            "ops_per_s": phase.ops_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        out = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        raw = [r.seconds for r in phase.recs if r.ok] or [r.seconds for r in phase.recs]
        notes.append(
            f"op_p50_s={values['op_p50_s']:.6f} s (n={len(ok)}; as measured "
            f"{statistics.median(raw):.6f} s)"
        )
        notes.append(
            f"op_tail_s={tail_value:.6f} s (p{pct:.1f}, n={len(ok)}, {beyond} beyond)"
        )
        notes.append(
            f"ops_per_s={values['ops_per_s']:.4f} 1/s ({len(ok)} ops in "
            f"{phase.busy_ref:.3f} CPU s at the reference speed, {phase.busy:.3f} as "
            f"measured; wall {phase.wall:.3f} s, "
            f"{len(ok) / phase.wall:.4f} 1/s)"
        )
        walls = phase.ok_walls or [r.wall for r in phase.recs]
        wall_tail, wall_pct, wall_beyond = tail(walls, float(params["tail_percentile"]))
        notes.append(
            f"wall latency (not gated) p50={statistics.median(walls):.6f} s "
            f"p{wall_pct:.1f}={wall_tail:.6f} s (n={len(walls)}, {wall_beyond} beyond)"
        )
        notes.append(f"peak_rss_mb={values['peak_rss_mb']:.1f} MB")
        for label, xs in (("", ok), (" as measured", raw)):
            if len(xs) > 1:
                q = statistics.quantiles(xs, n=100)
                notes.append(
                    f"op percentiles{label} "
                    + " ".join(f"p{p}={q[p - 1]:.6f}" for p in (50, 75, 90, 95, 99))
                )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}
    return result, notes


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((HERE / "spec.json").read_text())
    #: metric names and units are those of the benchmark's contract file
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        print(
            f"error: unknown workload {args.workload!r}; known: "
            + ", ".join(spec["workloads"]),
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro").is_dir():
        print(f"error: no package source at {SRC}/repro", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args, spec, Path(args.setup_only))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        cleared = hermetic_environment(work)
        result, notes = run(args, spec, contract, work, cleared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in notes:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
