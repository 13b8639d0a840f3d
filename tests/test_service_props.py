"""Property: the service is a transparent cache over the batch engines.

For any job the service can accept, the rows it serves must be
bit-identical to what ``repro sweep`` / ``repro grid`` would compute for
the same spec — serial or pooled, measured or analytic.  Hypothesis
draws the job; one shared server (serial) and one pooled server answer
it; ``measure_curve_fixed`` is the ground truth.  Examples are few and
tiny (this is an equality proof, not a fuzzing run — and the property
suite must stay fast on one core).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import measure_curve_fixed
from repro.scenarios import compile_grid, run_grid
from repro.service import JobSpec, ServerThread
from repro.workloads import TargetSpec

workloads = st.sampled_from(
    [
        TargetSpec(kind="micro.random", working_set_mb=1.0, seed=7),
        TargetSpec(kind="micro.sequential", working_set_mb=1.0, seed=7),
        TargetSpec(kind="zipf", working_set_mb=1.0, alpha=1.0, seed=3),
    ]
)

jobs = st.builds(
    JobSpec,
    workload=workloads,
    sizes_mb=st.sampled_from([(2.0,), (8.0, 2.0), (2.0, 8.0)]),
    benchmark=st.just("svc.prop"),
    engine=st.sampled_from(["measure", "surrogate"]),
    seed=st.integers(0, 3),
    interval_instructions=st.just(30_000.0),
    n_intervals=st.just(1),
)


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """One serial and one pooled server, shared by every example."""
    root = tmp_path_factory.mktemp("svc-props")
    with ServerThread(root / "s0", root / "s0.sock", sweep_workers=0) as serial:
        with ServerThread(root / "s2", root / "s2.sock", sweep_workers=2) as pooled:
            yield serial, pooled


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(job=jobs)
def test_service_rows_match_batch(servers, job):
    serial, pooled = servers
    expected = measure_curve_fixed(
        job.workload,
        list(job.sizes_mb),
        benchmark=job.benchmark,
        interval_instructions=job.interval_instructions,
        n_intervals=job.n_intervals,
        seed=job.seed,
        engine=job.engine,
    ).to_rows()
    for server in (serial, pooled):
        client = server.client()
        reply = client.submit(job)
        assert client.wait(reply["key"])["result"]["rows"] == expected


def test_service_rows_match_grid_cells(tmp_path):
    """Submitting a grid's cells reproduces ``run_grid`` bit-for-bit."""
    config = {
        "name": "svc_grid",
        "seed": 17,
        "axes": {
            "workload": [
                {"family": "zipf", "working_set_mb": 1.0, "alpha": 1.0},
            ],
            "policy": ["nru", "lru"],
            "pirate": [{"threads": 1, "sizes_mb": [2.0, 8.0]}],
            "engine": ["measure", "surrogate"],
        },
        "sweep": {"interval_instructions": 30_000.0, "n_intervals": 1},
    }
    grid = compile_grid(config)
    batch = run_grid(grid, workers=0)
    by_label_engine = {}
    for row in batch.rows():
        by_label_engine.setdefault((row["cell"], row["engine"]), []).append(row)
    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        client = srv.client()
        for cell in grid.cells:
            job = JobSpec.from_sweep(cell.spec, cell.sizes_mb, engine=cell.engine)
            result = client.wait(client.submit(job)["key"])["result"]
            expected = by_label_engine[(cell.key[:12], cell.engine)]
            got = [
                (r["cache_mb"], r["cpi"], r["fetch_ratio"], r["miss_ratio"])
                for r in result["rows"]
            ]
            want = [
                (r["size_mb"], r["cpi"], r["fetch_ratio"], r["miss_ratio"])
                for r in expected
            ]
            assert got == want
