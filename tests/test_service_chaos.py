"""Chaos through the service path: the server inherits supervision's promise.

:mod:`tests.test_chaos` proves the batch invariant — under any worker
chaos schedule a supervised sweep returns bit-identical curves or
explicitly quarantines.  These tests prove the *service* forwards that
promise intact: a :class:`ChaosPlan` context around a live server reaches
its sweeps through ``REPRO_CHAOS``, the one chaos transport, and the
fetched payload carries the same retries/quarantines a batch run would.
The server's ``drop_stream_after`` attribute attacks the service's own
transport — every watch stream is cut after N events — and the client
must still deliver every event exactly once.
"""

import pytest

from repro.core import measure_curve_fixed
from repro.faults import ChaosPlan
from repro.service import JobSpec, ServerThread, job_key
from repro.workloads import TargetSpec

WS = TargetSpec(kind="micro.random", working_set_mb=1.0, seed=7)
SIZES = (8.0, 2.0)


def tiny_job(**overrides) -> JobSpec:
    defaults = dict(
        workload=WS,
        sizes_mb=SIZES,
        benchmark="svc.chaos",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def clean_rows(job: JobSpec) -> list[dict]:
    return measure_curve_fixed(
        job.workload,
        list(job.sizes_mb),
        benchmark=job.benchmark,
        interval_instructions=job.interval_instructions,
        n_intervals=job.n_intervals,
        seed=job.seed,
    ).to_rows()


def strip_quality(rows: list[dict]) -> list[dict]:
    """Drop the provenance columns PartialCurve adds on top of curve rows."""
    return [{k: v for k, v in r.items() if k not in ("attempts", "quality")} for r in rows]


@pytest.fixture(autouse=True)
def _no_leaked_chaos():
    """Chaos env must never outlive a test, even on assertion failure."""
    yield
    ChaosPlan.clear_env()


def test_poisoned_point_retries_and_recovers_bit_identical(tmp_path):
    """One injected error: the supervisor retries, the curve is untouched."""
    with ChaosPlan(errors={0: (1,)}):
        with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
            client = srv.client()
            job = tiny_job()
            result = client.wait(client.submit(job)["key"])["result"]
    assert result["stats"]["quarantined"] == 0
    assert strip_quality(result["rows"]) == clean_rows(job)
    # the retry is visible in the payload stats, not hidden
    assert result["stats"]["retries"] == 1


def test_persistent_errors_quarantine_through_the_service(tmp_path):
    """A point erroring past the failure budget is quarantined, not wrong."""
    with ChaosPlan(errors={0: (1, 2, 3)}):
        with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
            client = srv.client()
            job = tiny_job()
            key = client.submit(job)["key"]
            events = list(client.watch(key))
            result = client.wait(key)["result"]
    # the job finishes (a quarantine is explicit degradation, not failure)
    assert events[-1]["type"] == "finished"
    assert result["stats"]["quarantined"] == 1
    assert "quarantined" in result["quality"].values()
    # surviving points are bit-identical to the clean curve's tail
    job_rows = strip_quality(result["rows"])
    expected = [r for r in clean_rows(tiny_job()) if r["cache_mb"] != 8.0]
    assert job_rows == expected


def test_worker_kill_mid_point_recovers_through_the_service(tmp_path):
    """A pool worker killed mid-point: respawn, re-verify, same bits."""
    with ChaosPlan(kills={0: (1,)}):
        with ServerThread(
            tmp_path / "state", tmp_path / "svc.sock", sweep_workers=2
        ) as srv:
            client = srv.client()
            job = tiny_job()
            result = client.wait(client.submit(job)["key"], timeout=600.0)["result"]
    assert result["stats"]["quarantined"] == 0
    assert strip_quality(result["rows"]) == clean_rows(job)


def test_dropped_watch_streams_deliver_every_event_exactly_once(tmp_path):
    """``drop_stream_after=1``: the client reconnects with ``since=`` and
    still sees a dense, duplicate-free event sequence ending terminal."""
    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        srv.server.drop_stream_after = 1
        client = srv.client()
        job = tiny_job()
        key = client.submit(job)["key"]
        events = list(client.watch(key))
        streams = srv.server.stats["watch_streams"]
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(1, len(seqs) + 1))  # dense, no gaps
    assert len(set(seqs)) == len(seqs)  # no duplicates
    assert [e["type"] for e in events] == ["submitted", "queued", "started", "finished"]
    # one event per stream means the client really did reconnect per event
    assert streams >= len(events)


def test_dropped_stream_without_reconnect_raises_nothing_but_stops_short(tmp_path):
    """``reconnect=False`` surfaces the cut instead of papering over it."""
    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        srv.server.drop_stream_after = 1
        client = srv.client()
        job = tiny_job()
        key = client.submit(job)["key"]
        # drain the job first so the backlog is complete and the cut
        # is deterministic: exactly one event per connection
        assert job_key(job) == key
        client.wait(key)
        events = list(client.watch(key, reconnect=False))
    assert len(events) == 1
    assert events[0]["seq"] == 1
