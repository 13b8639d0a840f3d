"""Host-speed calibration: how fast this host runs a fixed piece of work
right now, so that operation times can be stated at one reference speed.

On a shared VM the CPU seconds an operation costs swing by a factor of two
over minutes as neighbours load the physical core's sibling thread, its
caches and memory.  That is a change in the host, not in the program.  The
benchmark runs a fixed kernel of its own between operations and states
each operation's time as

    seconds x reference_s / (the kernel's seconds around that operation)

that is, the CPU seconds the operation would take on a host where the
kernel takes ``reference_s`` (``spec.json``).  The kernel is the
benchmark's code and never changes with the program, so a change to the
program moves the stated time in full; only the host's speed cancels.

The kernel is interpreter work with a large code footprint, in three equal
parts: parse and compile a stdlib module's source; JSON, pickle, regex and
difflib passes over a fixed document; and a set-associative LRU cache
model built from small objects.  Tracked against a fixed sweep point, a
fixed ``differential_compare`` and a warm grid pass while the host drifted
1.6x, that mix moved with them with an elasticity of 0.84-1.13 (log-log
slope).  Tight numpy loops and dict lookups, tried first, moved only
40-70% as much as the program in log terms, so dividing by them left part
of each slowdown in place.

The kernel is timed with the calling thread's CPU clock, so a thread the
program leaves running cannot slow the kernel's clock and hide its cost.
"""

from __future__ import annotations

import ast
import bisect
import difflib
import inspect
import json
import pickle
import random
import re
import statistics
import textwrap
import time
from dataclasses import dataclass

_rng = random.Random(20110401)
#: parse + compile: a fixed stdlib source (~20 kB)
_SOURCE = inspect.getsource(textwrap)
#: the serialisation passes' document
_DOC = {
    "rows": [
        {"name": f"n{i}", "vals": list(range(i % 17)), "f": i / 7} for i in range(600)
    ]
}
_LEFT = [str(_rng.randrange(50)) for _ in range(300)]
_RIGHT = [str(_rng.randrange(50)) for _ in range(300)]
#: the cache model: sets x ways, over a footprint four times the cache
SETS, WAYS = 64, 8
_ADDRESSES = [_rng.randrange(SETS * WAYS * 4) for _ in range(7000)]


@dataclass
class _Line:
    tag: int
    dirty: bool = False


def _cache_model() -> int:
    sets: list[list[_Line]] = [[] for _ in range(SETS)]
    hits = 0
    for n, addr in enumerate(_ADDRESSES):
        ways = sets[addr % SETS]
        for i, line in enumerate(ways):
            if line.tag == addr:
                hits += 1
                line.dirty |= n % 4 == 0
                ways.append(ways.pop(i))
                break
        else:
            if len(ways) == WAYS:
                ways.pop(0)
            ways.append(_Line(addr, n % 4 == 0))
    return hits


def kernel() -> int:
    """The fixed work; returns a checksum so that nothing is skipped."""
    code = compile(ast.parse(_SOURCE), "textwrap", "exec")
    text = json.dumps(_DOC)
    same = json.loads(text) == pickle.loads(pickle.dumps(_DOC))
    ratio = difflib.SequenceMatcher(None, _LEFT, _RIGHT).ratio()
    names = len(re.findall(r"n(\d+)", text))
    return len(code.co_consts) + same + int(ratio * 1000) + names + _cache_model()


def measure() -> float:
    """Thread-CPU seconds of one run of the kernel, right after an untimed
    run: the timed run finds the kernel's code and data in the caches
    whatever the program did before it, so a program that leaves the
    caches colder or warmer cannot move the calibration."""
    kernel()
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


#: least wall seconds between two calibrations (two kernel runs: 4-8% of
#: the phase)
EVERY_S = 0.5
#: a stretch of the run is stated against the calibrations this many wall
#: seconds around it (the host's speed moves over seconds to minutes)
WINDOW_S = 2.0


class HostSpeed:
    """Kernel timings taken through a run, at wall-clock instants, and the
    factor that states a stretch of the run's CPU seconds at the reference
    speed."""

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.stamps: list[float] = []
        self.times: list[float] = []

    def calibrate(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.stamps or now - self.stamps[-1] >= EVERY_S:
            self.times.append(measure())
            self.stamps.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """reference_s over the median kernel time of the calibrations
        within ``WINDOW_S`` of the wall stretch [start, end], the window
        doubled until it holds at least three."""
        window = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.stamps, start - window)
            hi = bisect.bisect_right(self.stamps, end + window)
            if hi - lo >= 3 or hi - lo == len(self.stamps):
                return self.reference_s / statistics.median(self.times[lo:hi])
            window *= 2

    def median_s(self) -> float:
        return statistics.median(self.times)
