"""Benchmark-harness configuration.

Every bench regenerates one of the paper's tables or figures at QUICK scale
through ``benchmark.pedantic(rounds=1)`` — these are end-to-end experiment
replays (seconds to minutes each), not micro benchmarks, so re-running them
for statistics would only burn time.  Run with::

    pytest benchmarks/ --benchmark-only

Environment knobs (mirroring the test suite's conventions):

``REPRO_BENCH_ONLY=<substr>[,<substr>...]``
    keep only benches whose node id contains one of the substrings
    (e.g. ``REPRO_BENCH_ONLY=fig8,kernels``),
``REPRO_TEST_ORDER_SEED=<int>``
    shuffle bench order with that seed, exactly like the test suite,
``REPRO_KERNEL=<auto|scalar>``
    the simulation engine every bench's default config picks up.

Each bench prints one machine-parseable line on completion::

    REPRO-BENCH bench=<nodeid> wall_s=<seconds> kernel=<mode>
"""

import os
import random
import time

import pytest

from repro.experiments import QUICK


def pytest_configure(config):
    # a single label in the report: experiments run at QUICK scale
    config.addinivalue_line("markers", "experiment: paper table/figure replay")


def pytest_collection_modifyitems(config, items):
    only = os.environ.get("REPRO_BENCH_ONLY")
    if only:
        patterns = [p.strip() for p in only.split(",") if p.strip()]
        if patterns:
            keep = [i for i in items if any(p in i.nodeid for p in patterns)]
            dropped = [i for i in items if i not in keep]
            if dropped:
                config.hook.pytest_deselected(items=dropped)
            items[:] = keep
    seed = os.environ.get("REPRO_TEST_ORDER_SEED")
    if seed:
        random.Random(int(seed)).shuffle(items)


def pytest_report_header(config):
    parts = []
    for var in ("REPRO_BENCH_ONLY", "REPRO_TEST_ORDER_SEED", "REPRO_KERNEL"):
        val = os.environ.get(var)
        if val:
            parts.append(f"{var}={val}")
    return parts or None


@pytest.fixture(scope="session")
def scale():
    """The experiment scale benches run at."""
    return QUICK


@pytest.fixture()
def run_once(benchmark, request):
    """Run an experiment exactly once under the benchmark timer."""

    def _run(fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
        wall = time.perf_counter() - t0
        kernel = os.environ.get("REPRO_KERNEL", "auto")
        print(
            f"\nREPRO-BENCH bench={request.node.nodeid} "
            f"wall_s={wall:.3f} kernel={kernel}"
        )
        return result

    return _run
