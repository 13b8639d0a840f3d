"""The four benchmark workloads, driven through the package's public API.

Each workload makes its whole input from the seed, so the same seed
replays the same operations in the same order.  The interface the runner
uses:

``setup(work)``
    build the state the operations run against, in a fresh directory (the
    runner also times it, in separate processes);
``batch(first)``
    run the next batch of operations, numbered from ``first``; returns one
    ``(cpu_seconds, wall_seconds, result)`` per operation.  This is the
    timed region;
``check(first, results)``
    outside the timed region: one verdict per operation (False = failed);
``final_check(records)``
    after the timed phase: indices of further failed operations;
``round_ops``
    operations per balanced round; a timed phase ends on a round boundary;
``fingerprint(result)``
    canonical text of an operation's simulated outcome (the digest input).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import replace
from pathlib import Path

from repro import scenarios, validation
from repro.config import nehalem_config, tiny_config
from repro.core import parallel
from repro.core.parallel import SweepSpec, result_to_payload, sweep_points
from repro.rng import stable_seed
from repro.service.protocol import JobSpec, ServiceError
from repro.service.testing import ServerThread
from repro.units import MB
from repro.workloads import TargetSpec

# Layer entry points are called through their modules (``parallel.x``,
# ``scenarios.x``), never bound here, so the tracer's wrappers see them.

#: Operations are timed in CPU seconds of this process, all threads (user +
#: system).  On a shared VM, wall time also counts the time the vCPU was not
#: running and thread wake-up delays, which swing by tens of percent from
#: run to run; the runner reports wall time alongside.  A regression that
#: only adds waiting (a sleep, lock contention, a slow hand-off) costs no
#: CPU and shows only in the wall figures.
clock = time.process_time
wall = time.perf_counter


def _timed(fn, *args):
    """One operation as ``(cpu_seconds, wall_seconds, result)``."""
    t0, w0 = clock(), wall()
    result = fn(*args)
    return clock() - t0, wall() - w0, result


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rng(*parts) -> random.Random:
    # string seeds hash through sha512: stable across processes and platforms
    return random.Random(":".join(str(p) for p in parts))


class Load:
    """Defaults shared by the workloads (one operation per batch)."""

    name = ""
    #: operations per balanced round; timed phases end on a round boundary
    round_ops = 1

    def __init__(self, params: dict, seed: int, *, nproc: int, plant: str | None):
        self.p = params
        self.seed = seed
        self.nproc = nproc
        self.plant = plant

    def setup(self, work: Path) -> None:
        pass

    def check(self, first: int, results: list) -> list[bool]:
        return [True] * len(results)

    def final_check(self, records: list) -> set[int]:
        return set()

    def close(self) -> None:
        pass


# -- sweep ----------------------------------------------------------------------


class SweepLoad(Load):
    """Fixed-size sweep points, serial and in-process, no store.

    Operations come in rounds of one point per benchmark, in seeded order.
    Two consecutive rounds form a block that uses each size of the grid
    once: every benchmark gets one size from the lower and one from the
    upper half of the grid, and one 1-thread and one 2-thread Pirate, and
    each round holds four of each.  The seed draws the pairings, so every
    run measures the same balance of footprints, sizes and Pirate widths.
    """

    name = "sweep"

    def __init__(self, params, seed, **kw):
        super().__init__(params, seed, **kw)
        self.config = nehalem_config()
        self.round_ops = 2 * len(params["benchmarks"])  # a whole block

    def block(self, b: int) -> list[list[tuple]]:
        """Block ``b``: two rounds of (benchmark, size_mb, pirate threads)."""
        p = self.p
        names, n = p["benchmarks"], len(p["benchmarks"])
        rng = _rng("sweep", self.seed, b)
        grid = sorted(p["sizes_mb"])
        low, high = rng.sample(grid[:n], n), rng.sample(grid[n:], n)
        upper_first = set(rng.sample(range(n), n // 2))
        wide_first = set(rng.sample(range(n), n // 2))
        rounds = [[], []]
        for k, name in enumerate(names):
            for second in (0, 1):
                upper = (k in upper_first) != bool(second)
                wide = (k in wide_first) != bool(second)
                size = (high if upper else low).pop()
                rounds[second].append((name, size, p["pirate_threads"][int(wide)]))
        for r in rounds:
            rng.shuffle(r)
        return rounds

    def point(self, i: int, config=None):
        p = self.p
        r, j = divmod(i, len(p["benchmarks"]))
        name, size, threads = self.block(r // 2)[r % 2][j]
        wl_seed = stable_seed(self.seed, name, r)
        target = (
            TargetSpec(kind="cigar", seed=wl_seed)
            if name == "cigar"
            else TargetSpec(kind="benchmark", name=name, seed=wl_seed)
        )
        spec = SweepSpec(
            target=target,
            benchmark=name,
            config=config or self.config,
            num_pirate_threads=threads,
            interval_instructions=float(p["interval_instructions"]),
            n_intervals=int(p["n_intervals"]),
            warmup_instructions=float(p["warmup_instructions"]),
            seed=stable_seed(self.seed, "sweep", i),
        )
        return spec, sweep_points(spec, [size])[0]

    def batch(self, first: int) -> list:
        return [_timed(parallel.measure_sweep_point, *self.point(first))]

    def fingerprint(self, result) -> str:
        return _canonical(result_to_payload(result))

    def final_check(self, records: list) -> set[int]:
        """Re-run a seeded sample of points on the scalar interpreter (the
        model's oracle) and demand bit-identical payloads."""
        done = [r.index for r in records]
        k = min(int(self.p["scalar_checks"]), len(done))
        scalar = replace(self.config, kernel="scalar")
        failed = set()
        for i in _rng("scalar-check", self.seed).sample(done, k):
            spec, point = self.point(i, scalar)
            payload = result_to_payload(parallel.measure_sweep_point(spec, point))
            if self.plant == "scalar-mismatch":
                payload["samples"][0]["target"]["l3_fetches"] += 1
            digest = hashlib.sha256(_canonical(payload).encode()).digest()
            if digest != records[done.index(i)].fingerprint:
                failed.add(i)
        return failed


# -- validate --------------------------------------------------------------------


class ValidateLoad(Load):
    """The differential oracle, one benchmark per operation, rounds of the
    whole benchmark list in seeded order."""

    name = "validate"

    def __init__(self, params, seed, **kw):
        super().__init__(params, seed, **kw)
        self.round_ops = len(params["benchmarks"])
        self.tier = validation.ValidationTier(
            name="perfbench",
            **{k: tuple(v) if isinstance(v, list) else v for k, v in params["tier"].items()},
        )
        self.config = None  # the oracle's own default (prefetchers off)
        #: worst |pirated - reference| fetch ratio seen, percentage points
        self.max_fr_err_pct = 0.0

    def op_args(self, i: int):
        names = self.p["benchmarks"]
        r, j = divmod(i, len(names))
        return _rng("validate", self.seed, r).sample(names, len(names))[j], stable_seed(
            self.seed, "validate", i
        )

    def run_op(self, i: int, config=None, workers: int = 0):
        name, seed = self.op_args(i)
        diff = validation.differential_compare(
            name, self.tier, config=config or self.config, seed=seed, workers=workers
        )
        return validation.conformance_report(diff, self.tier.bound)

    def batch(self, first: int) -> list:
        return [_timed(self.run_op, first)]

    def check(self, first: int, results: list) -> list[bool]:
        # every size must PASS: a grey (untrusted) size is a failed op too
        for report in results:
            worst = max(p.fetch_divergence for p in report.points) * 100.0
            self.max_fr_err_pct = max(self.max_fr_err_pct, worst)
        return [all(p.conforms for p in report.points) for report in results]

    def fingerprint(self, report) -> str:
        return _canonical(report.to_dict())


# -- grid-warm -------------------------------------------------------------------


def _families(params: dict, seed: int) -> list[dict]:
    return [dict(f, seed=seed) for f in params["families"]]


class GridWarmLoad(Load):
    """A grid run cold in set-up, then replayed warm; one op per cell."""

    name = "grid-warm"

    def __init__(self, params, seed, **kw):
        super().__init__(params, seed, **kw)
        p = params
        self.config = {
            "name": "perfbench",
            "seed": seed,
            "axes": {
                "workload": _families(p, seed),
                "machine": [p["machine"]],
                "policy": list(p["policies"]),
                "prefetch": [False],
                "pirate": [{"threads": 1, "sizes_mb": list(p["sizes_mb"])}],
                "engine": list(p["engines"]),
            },
            "sweep": {
                "interval_instructions": float(p["interval_instructions"]),
                "n_intervals": int(p["n_intervals"]),
            },
        }
        self.store = self.out = None
        self.cold_rows: list[list[dict]] = []

    def setup(self, work: Path) -> None:
        self.store, self.out = work / "store", work / "out"
        grid = scenarios.compile_grid(self.config)
        result = scenarios.run_grid(
            grid, workers=self.nproc, cache_dir=self.store, out_dir=self.out
        )
        scenarios.emit(result, self.out)
        self.cold_rows = [c.rows for c in result.cells]
        if self.plant == "tamper-store":
            # one simulated counter changes; the entry keeps its old checksum
            entry = sorted(self.store.glob("*.json"))[0]
            envelope = json.loads(entry.read_text())
            envelope["payload"]["samples"][0]["target"]["l3_fetches"] += 1
            entry.write_text(json.dumps(envelope))

    def batch(self, first: int) -> list:
        stamps = []
        grid = scenarios.compile_grid(self.config)
        t_cells = (clock(), wall())
        result = scenarios.run_grid(
            grid,
            cache_dir=self.store,
            out_dir=self.out,
            echo=lambda _line: stamps.append((clock(), wall())),
        )
        scenarios.emit(result, self.out)
        starts = [t_cells] + stamps[:-1]
        return [
            (end[0] - start[0], end[1] - start[1], cell)
            for start, end, cell in zip(starts, stamps, result.cells)
        ]

    def check(self, first: int, results: list) -> list[bool]:
        quarantined = sorted(self.store.glob("*.corrupt"))
        for path in quarantined:
            path.unlink()  # one finding per corruption, not one per pass
        verdicts = [
            cell.measured == 0
            and cell.cache_hits == len(cell.cell.sizes_mb)
            and cell.rows == cold
            for cell, cold in zip(results, self.cold_rows)
        ]
        if quarantined and all(verdicts):
            verdicts[0] = False
        return verdicts

    def fingerprint(self, cell) -> str:
        return _canonical(cell.rows)


# -- service-warm ----------------------------------------------------------------


class ServiceWarmLoad(Load):
    """A live server whose ResultStore was filled in set-up; one client in a
    closed loop submits stored specs (store hits) and fetches their curves.

    The protocol closes the connection after each response, so every
    request opens a fresh unix-socket connection.
    """

    name = "service-warm"

    def __init__(self, params, seed, **kw):
        super().__init__(params, seed, **kw)
        p = params
        machine = tiny_config(
            l3_size=int(p["machine"]["l3_mb"] * MB), l3_ways=p["machine"]["l3_ways"]
        )
        self.jobs = [
            JobSpec(
                workload=TargetSpec(
                    kind=f["family"], **{k: v for k, v in f.items() if k != "family"}
                ),
                sizes_mb=tuple(p["sizes_mb"]),
                machine=machine,
                interval_instructions=float(p["interval_instructions"]),
                n_intervals=int(p["n_intervals"]),
                engine=engine,
                seed=seed,
            )
            for f in _families(p, seed)
            for engine in p["engines"]
        ]
        self.round_ops = len(self.jobs)
        self.server: ServerThread | None = None
        self.client = None
        self.stored: dict[str, dict] = {}
        self.executed = 0

    def setup(self, work: Path) -> None:
        self.close()
        server = ServerThread(
            work / "state",
            _short_path(work / "s.sock"),
            job_workers=self.nproc,
            sweep_workers=0,
        )
        self.server = server
        client = server.client("perfbench")
        keys = [client.submit(job)["key"] for job in self.jobs]
        self.stored = {}
        for key in keys:
            client.wait(key, timeout=120.0)
            self.stored[key] = client.fetch(key)["result"]
        self.executed = client.stats()["stats"]["jobs_executed"]
        self.client = client

    def op_job(self, i: int) -> JobSpec:
        n = len(self.jobs)
        r, j = divmod(i, n)
        return _rng("service", self.seed, r).sample(self.jobs, n)[j]

    def batch(self, first: int) -> list:
        return [_timed(self.request, self.op_job(first))]

    def request(self, job: JobSpec):
        try:
            sub = self.client.submit(job)
            return sub, self.client.fetch(sub["key"])
        except (ServiceError, OSError) as e:
            return e

    def check(self, first: int, results: list) -> list[bool]:
        out = []
        for res in results:
            if isinstance(res, Exception):
                out.append(False)
                continue
            sub, got = res
            out.append(
                sub.get("state") == "done"
                and sub.get("cached") is True
                and got["result"] == self.stored.get(sub["key"])
            )
        return out

    def final_check(self, records: list) -> set[int]:
        # any execution after set-up means some submit was not a store hit
        executed = self.client.stats()["stats"]["jobs_executed"]
        return {records[-1].index} if executed != self.executed else set()

    def fingerprint(self, res) -> str:
        if isinstance(res, Exception):
            return f"error: {res}"
        return _canonical(res[1]["result"]["rows"])

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _short_path(path: Path) -> Path:
    """A unix socket path short enough for ``bind`` (108 bytes on Linux):
    relative to the working directory when the absolute one is too long."""
    if len(str(path)) < 100:
        return path
    return Path(os.path.relpath(path))


LOADS = {cls.name: cls for cls in (SweepLoad, ValidateLoad, GridWarmLoad, ServiceWarmLoad)}
