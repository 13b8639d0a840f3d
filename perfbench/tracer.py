"""In-memory spans around calls into the package's layers.

The benchmark measures the program as it ships, so nothing here edits the
package: :class:`Tracer` replaces selected public functions and methods
with timing wrappers for the length of a traced phase and puts the
originals back afterwards.  A span records its name, start and end; a
layer's *self* time is its spans' duration minus the time covered by the
spans they caused.  Spans stay in memory (aggregated per name, plus a
capped raw list) and are written out only when the benchmark ends.

Spans are per thread: the service handler runs on the server's event-loop
thread, so each thread keeps its own stack and totals, merged on read.
Spans read the same clock as the runner's operation timings (CPU seconds
of the whole process), so a span around a client request also counts the
server threads' work for it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: simulated counters folded out of every CoreMemStats a Machine sees
MEM_FIELDS = (
    ("l1_hits", "caches.l1_hits"),
    ("l2_hits", "caches.l2_hits"),
    ("l3_hits", "caches.l3_hits"),
    ("l3_misses", "caches.l3_misses"),
    ("l3_fetches", "caches.l3_fetches"),
    ("prefetch_fills", "caches.prefetch_fills"),
    ("dram_writeback_lines", "caches.dram_writebacks"),
)

#: raw spans kept for the written trace; aggregates are never capped
RAW_CAP = 500_000


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "ref_depth", "tid")

    def __init__(self, tid: int):
        self.tid = tid
        #: open spans: [name, seconds covered by finished children]
        self.stack: list[list] = []
        #: name -> [calls, total seconds, child seconds]
        self.agg: dict[str, list] = {}
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: >0 while inside the trace-driven reference simulator
        self.ref_depth = 0


class Tracer:
    """Span recorder plus the patch table that installs it."""

    def __init__(self, clock):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.raw: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn, after=None, in_reference=None):
        """Timing wrapper.  ``name`` may be a callable of (args, kwargs);
        ``after`` feeds the thread's counters from the call's result.
        Inside the reference simulator a wrapper given ``in_reference``
        opens no span and feeds only that hook."""
        tracer = self
        clock = self.clock
        reference = name == "reference"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if in_reference is not None and st.ref_depth:
                res = fn(*args, **kwargs)
                in_reference(st.counts, args, kwargs, res)
                return res
            span = name(args, kwargs) if callable(name) else name
            frame = [span, 0.0]
            st.stack.append(frame)
            st.ref_depth += reference
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.ref_depth -= reference
                st.stack.pop()
                dt = t1 - t0
                parent = st.stack[-1] if st.stack else None
                if parent is not None:
                    parent[1] += dt
                agg = st.agg.get(span)
                if agg is None:
                    agg = st.agg[span] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]
                if len(tracer.raw) < RAW_CAP:
                    tracer.raw.append(
                        (st.tid, span, parent[0] if parent else None, t0, t1)
                    )
            if after is not None:
                after(st.counts, args, kwargs, res)
            return res

        return wrapper

    # -- read-out -----------------------------------------------------------------

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """(per-span [calls, total_s, self_s], counters) merged over threads."""
        spans: dict[str, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, child) in list(st.agg.items()):
                cur = spans.setdefault(name, [0, 0.0, 0.0])
                cur[0] += calls
                cur[1] += total
                cur[2] += total - child
            for key, value in list(st.counts.items()):
                counts[key] = counts.get(key, 0.0) + value
        return spans, counts

    def write(self, path: Path) -> None:
        """Write the raw spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for tid, name, parent, t0, t1 in self.raw:
                fh.write(
                    json.dumps(
                        {"tid": tid, "name": name, "parent": parent,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )

    # -- installation -------------------------------------------------------------

    def _patch_function(self, fn, wrapper) -> None:
        """Replace ``fn`` wherever a ``repro`` module holds a reference to it
        (modules bind ``from x import f`` at import time)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(cls, attr, wrapper)

    def function(self, fn, name, after=None) -> None:
        self._patch_function(fn, self._wrap(name, fn, after))

    def method(self, cls, attr: str, name, after=None, in_reference=None) -> None:
        original = cls.__dict__[attr]
        fn = original.__func__ if isinstance(original, staticmethod) else original
        self._patch_method(cls, attr, self._wrap(name, fn, after, in_reference))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        install_layers(self)
        try:
            yield self
        finally:
            self.uninstall()


# -- the layer boundaries ---------------------------------------------------------


def _after_access(counts, args, kwargs, stats) -> None:
    n = len(args[2] if len(args) > 2 else kwargs["lines"])
    if _bypass(args, kwargs):
        counts["caches.l3only.lines"] += n
    else:
        counts["caches.full.lines"] += n
    for attr, metric in MEM_FIELDS:
        counts[metric] += getattr(stats, attr)


def _after_reference_access(counts, args, kwargs, stats) -> None:
    counts["reference.lines"] += len(args[2] if len(args) > 2 else kwargs["lines"])


def _bypass(args, kwargs) -> bool:
    return kwargs.get("bypass_private", args[4] if len(args) > 4 else False)


def _after_quantum(counts, args, kwargs, res) -> None:
    counts["hardware.quanta"] += 1
    counts["hardware.sim_cycles"] += res[0]
    counts["hardware.sim_instructions"] += args[1]


def _after_chunk(counts, args, kwargs, res) -> None:
    counts["workloads.chunk.lines"] += len(res[0])


def _after_verdict(counts, args, kwargs, verdict) -> None:
    counts["core.invalid_intervals"] += not verdict.trustworthy


def _after_load(counts, args, kwargs, result) -> None:
    counts["core.store.loads"] += 1
    counts["core.store.hits"] += result is not None


def _after_store(counts, args, kwargs, res) -> None:
    counts["core.store.writes"] += 1


def _after_submit(counts, args, kwargs, env) -> None:
    counts["service.requests"] += 1
    counts["service.submits"] += 1
    counts["service.dedup"] += bool(env.get("cached") or env.get("dedup"))


def _after_fetch(counts, args, kwargs, env) -> None:
    counts["service.requests"] += 1


def _workload_classes():
    """Every class in ``repro.workloads`` that defines its own ``chunk``."""
    import repro.workloads as pkg

    seen = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith(pkg.__name__):
            continue
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if "chunk" in cls.__dict__ and cls.__module__.startswith(pkg.__name__):
                if cls not in seen:
                    seen.append(cls)
    return seen


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see perfbench/README.md)."""
    import repro.core.harness as harness
    import repro.core.parallel as parallel
    import repro.scenarios.collect as collect
    import repro.scenarios.grid as grid
    import repro.scenarios.runner as runner
    import repro.surrogate.engine as surrogate
    import repro.validation.conformance as conformance
    import repro.validation.differential as differential
    from repro.caches.hierarchy import CacheHierarchy
    from repro.core.attach import measure_between_markers
    from repro.core.monitor import PirateMonitor
    from repro.core.pirate import PirateThreadWorkload
    from repro.hardware.core import CoreTimingModel
    from repro.hardware.machine import Machine
    from repro.reference import cachesim, sweep
    from repro.service.client import ServiceClient
    from repro.service.server import SweepServer
    from repro.service.store import ResultStore
    from repro.tracing import profiler, tracer as capture

    for cls in _workload_classes():
        tracer.method(cls, "chunk", "workloads.chunk", _after_chunk)
    tracer.method(PirateThreadWorkload, "chunk", "core.pirate")
    tracer.method(
        CacheHierarchy, "access_chunk",
        lambda args, kwargs: "caches.l3only" if _bypass(args, kwargs) else "caches.full",
        _after_access, in_reference=_after_reference_access,
    )
    tracer.method(CoreTimingModel, "quantum_cycles", "hardware.timing", _after_quantum)
    tracer.method(Machine, "run", "hardware.machine")
    tracer.function(harness.measure_fixed_size, "core.harness")
    tracer.function(measure_between_markers, "core.harness")
    tracer.method(PirateMonitor, "end", "core.harness", _after_verdict)
    tracer.function(parallel.measure_sweep_point, "core.parallel")
    tracer.function(parallel.run_sweep, "core.parallel")
    tracer.function(parallel.parallel_map, "core.parallel")
    tracer.method(parallel.SweepCache, "load", "core.store.load", _after_load)
    tracer.method(parallel.SweepCache, "store", "core.store.write", _after_store)
    tracer.method(parallel.SweepCache, "_decode", "core.payload.decode")
    tracer.function(sweep.reference_curve, "reference")
    tracer.function(cachesim.simulate_trace, "reference")
    tracer.function(capture.capture_trace, "tracing.capture")
    tracer.function(profiler.profile_workload, "tracing.profile")
    tracer.function(differential.differential_compare, "validation")
    tracer.function(conformance.conformance_report, "validation")
    tracer.function(grid.compile_grid, "scenarios.compile")
    tracer.function(runner.run_cell, "scenarios.cell")
    tracer.function(runner.run_grid, "scenarios.run")
    tracer.function(collect.emit, "scenarios.emit")
    tracer.function(surrogate.run_surrogate_sweep, "surrogate")
    tracer.method(SweepServer, "submit", "service.handler")
    tracer.method(SweepServer, "fetch", "service.handler")
    tracer.method(ResultStore, "get", "service.store.get")
    tracer.method(ServiceClient, "submit", "service.client", _after_submit)
    tracer.method(ServiceClient, "fetch", "service.client", _after_fetch)
