"""Curve service end to end: protocol, store, round trips, dedup, quotas.

The service's contract is the batch engine's, lifted behind a socket:
submitting a job returns its sha256 content key, identical concurrent
submits coalesce into exactly one execution, the answer is bit-identical
to ``measure_curve_fixed``, and the result store's LRU eviction + warm
start make restarts invisible.  Chaos, journal-resume and soak coverage
live in their own ``test_service_*`` files; this one pins the protocol
and the happy paths.
"""

import asyncio
import json
import threading
from dataclasses import replace

import pytest

from repro.config import nehalem_config, tiny_config
from repro.core import measure_curve_fixed
from repro.core.parallel import sweep_spec_sha
from repro.errors import ConfigError
from repro.service import (
    EVENT_TYPES,
    PROTOCOL_VERSION,
    TERMINAL_EVENTS,
    JobSpec,
    ResultStore,
    ServerThread,
    ServiceError,
    job_from_wire,
    job_key,
    job_run_id,
    job_to_wire,
    normalize_envelope,
)
from repro.workloads import TargetSpec

WS = TargetSpec(kind="micro.random", working_set_mb=1.0, seed=7)


def tiny_job(**overrides) -> JobSpec:
    """A two-point job small enough to measure in well under a second."""
    defaults = dict(
        workload=WS,
        sizes_mb=(2.0, 8.0),
        benchmark="svc.tiny",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


@pytest.fixture()
def server(tmp_path):
    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        yield srv


# -- protocol ----------------------------------------------------------------------


def test_job_wire_round_trip():
    # sizes within the tiny machine's 8KB L3: a job that cannot fit is refused
    job = tiny_job(
        machine=tiny_config(policy="lru"),
        sizes_mb=(0.00390625, 0.0078125),
        engine="auto",
        run_id="r1",
    )
    assert job_from_wire(job_to_wire(job)) == job


def test_job_wire_is_pure_json():
    wire = job_to_wire(tiny_job())
    assert json.loads(json.dumps(wire)) == wire


def test_job_key_is_engine_and_sweep_content():
    base = tiny_job()
    assert job_key(base) == job_key(tiny_job())
    assert job_key(base) != job_key(tiny_job(engine="surrogate"))
    assert job_key(base) != job_key(tiny_job(seed=12))
    assert job_key(base) != job_key(tiny_job(sizes_mb=(8.0, 2.0)))  # order pins
    # an int interval is the same sweep as its float spelling
    assert job_key(tiny_job(interval_instructions=40_000)) == job_key(tiny_job())


def test_job_key_ignores_run_id():
    assert job_key(tiny_job()) == job_key(tiny_job(run_id="adopted"))


def test_job_key_matches_sweep_spec_sha():
    """The service key is built on the exact hash the run journal pins."""
    job = tiny_job()
    assert sweep_spec_sha(job.sweep_spec(), list(job.sizes_mb)) == sweep_spec_sha(
        replace(job.sweep_spec(), telemetry=True), list(job.sizes_mb)
    )


@pytest.mark.parametrize(
    "mutate",
    [
        {"sizes_mb": ()},
        {"sizes_mb": (0.0,)},
        {"engine": "psychic"},
        {"pirate_threads": 0},
        {"n_intervals": 0},
        {"interval_instructions": -1.0},
    ],
)
def test_job_spec_validates(mutate):
    with pytest.raises(ConfigError):
        tiny_job(**mutate)


@pytest.mark.parametrize(
    "wire",
    [
        "not a dict",
        {},
        {"workload": {"kind": "micro.random"}},  # no sizes
        {"workload": "junk", "sizes_mb": [2.0]},
        {"workload": {"kind": "nope"}, "sizes_mb": [2.0]},
        {"workload": {"kind": "micro.random"}, "sizes_mb": "2.0"},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "bogus": 1},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "machine": 3},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "run_id": 5},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "run_id": "x/y"},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "run_id": " pad"},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "run_id": "a\0b"},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "run_id": None},
        # each breaks a SweepSpec or sweep_points rule: refused at submit,
        # never queued to fail (or retry and quarantine) in a job thread
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "n_intervals": 1.5},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "pirate_threads": 1.5},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [float("inf")]},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [100.0]},  # 8MB L3
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "seed": "x"},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "warmup_instructions": -5},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "n_intervals": True},
        {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], "benchmark": 7},
    ],
)
def test_job_from_wire_rejects_junk(wire):
    with pytest.raises(ServiceError) as e:
        job_from_wire(wire)
    assert e.value.status == 400
    assert "\n" not in str(e.value)


@pytest.mark.parametrize(
    "field, value",
    [("n_intervals", 10**400), ("interval_instructions", 1e300), ("seed", 10**40)],
)
def test_job_from_wire_refuses_unbounded_work(field, value):
    """A job that would never finish is a 400 at submit, not a queued sweep."""
    wire = {"workload": {"kind": "micro.random"}, "sizes_mb": [2.0], field: value}
    with pytest.raises(ServiceError, match=rf"^job: {field} must be ") as e:
        job_from_wire(wire)
    assert e.value.status == 400
    assert "\n" not in str(e.value)


def test_normalize_envelope_zeroes_volatile_fields():
    data = {"elapsed_s": 1.23, "nested": [{"wall_s": 9, "rows": 2}], "uptime_s": 4}
    assert normalize_envelope(data) == {
        "elapsed_s": 0.0,
        "nested": [{"wall_s": 0.0, "rows": 2}],
        "uptime_s": 0.0,
    }


# -- result store ------------------------------------------------------------------


def k(i: int) -> str:
    return f"{i:02d}" * 32


def test_store_round_trip_and_lru_eviction(tmp_path):
    store = ResultStore(tmp_path, max_entries=2)
    store.put(k(1), {"a": 1})
    store.put(k(2), {"a": 2})
    assert store.get(k(1)) == {"a": 1}  # refreshes recency
    store.put(k(3), {"a": 3})
    assert store.get(k(2)) is None  # LRU victim
    assert store.get(k(1)) == {"a": 1}
    assert store.evictions == 1
    assert not (tmp_path / f"{k(2)}.json").exists()


def test_store_warm_start_skips_corrupt_entries(tmp_path):
    store = ResultStore(tmp_path, max_entries=8)
    store.put(k(1), {"a": 1})
    store.put(k(2), {"a": 2})
    path = tmp_path / f"{k(2)}.json"
    path.write_text(path.read_text().replace('"a": 2', '"a": 3'))  # tamper
    reborn = ResultStore(tmp_path, max_entries=8)
    assert reborn.warm_start() == 1
    assert reborn.get(k(1)) == {"a": 1}
    assert reborn.get(k(2)) is None
    assert not path.exists()  # tampered artifact swept up


def test_store_warm_start_enforces_cap(tmp_path):
    store = ResultStore(tmp_path, max_entries=8)
    for i in range(4):
        store.put(k(i), {"a": i})
    small = ResultStore(tmp_path, max_entries=2)
    assert small.warm_start() == 2
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_store_rejects_nonpositive_cap(tmp_path):
    with pytest.raises(ValueError):
        ResultStore(tmp_path, max_entries=0)


# -- end-to-end round trips --------------------------------------------------------


def test_submit_watch_fetch_round_trip(server):
    client = server.client("alice")
    job = tiny_job()
    reply = client.submit(job)
    assert reply["ok"] and reply["protocol"] == PROTOCOL_VERSION
    assert reply["key"] == job_key(job)
    events = list(client.watch(reply["key"]))
    assert [e["type"] for e in events] == ["submitted", "queued", "started", "finished"]
    assert [e["seq"] for e in events] == [1, 2, 3, 4]
    assert all(e["type"] in EVENT_TYPES for e in events)
    assert events[-1]["type"] in TERMINAL_EVENTS
    result = client.fetch(reply["key"])["result"]
    batch = measure_curve_fixed(
        WS,
        [2.0, 8.0],
        benchmark="svc.tiny",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    assert result["rows"] == batch.to_rows()
    assert result["stats"]["run_id"] == job_run_id(reply["key"])


def test_resubmit_is_a_cache_hit(server):
    client = server.client()
    first = client.submit(tiny_job())
    client.wait(first["key"])
    again = client.submit(tiny_job())
    assert again["state"] == "done" and again["cached"] and not again["dedup"]
    assert server.server.stats["jobs_executed"] == 1


def test_concurrent_identical_submits_execute_once(server):
    """N clients racing the same job -> one execution, N bit-equal answers."""
    n = 6
    job = tiny_job(benchmark="svc.race")
    replies, results, errors = [], [], []

    def one(i):
        try:
            c = server.client(f"client-{i}")
            r = c.submit(job)
            replies.append(r)
            results.append(c.wait(r["key"])["result"]["rows"])
        except Exception as e:  # surface thread failures in the main assert
            errors.append(e)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    assert len(results) == n
    assert server.server.stats["jobs_executed"] == 1
    assert all(r == results[0] for r in results)
    assert all(r["key"] == job_key(job) for r in replies)
    # every racer after the first was deduped or served from the store
    assert sum(1 for r in replies if r["dedup"] or r["cached"]) == n - 1


def test_different_jobs_execute_separately(server):
    client = server.client()
    k1 = client.submit(tiny_job())["key"]
    k2 = client.submit(tiny_job(seed=12))["key"]
    assert k1 != k2
    client.wait(k1)
    client.wait(k2)
    assert server.server.stats["jobs_executed"] == 2


def test_status_and_stats_endpoints(server):
    client = server.client()
    key = client.submit(tiny_job())["key"]
    client.wait(key)
    status = client.status(key)
    assert status["state"] == "done" and status["events"] >= 4
    stats = client.stats()
    assert stats["stats"]["jobs_submitted"] == 1
    assert stats["store"]["entries"] == 1
    assert stats["uptime_s"] > 0
    assert client.health()["status"] == "healthy"


def test_unknown_key_is_404(server):
    client = server.client()
    for call in (client.status, client.fetch):
        with pytest.raises(ServiceError) as err:
            call("f" * 64)
        assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        list(client.watch("f" * 64))
    assert err.value.status == 404


def test_surrogate_job_round_trip(server):
    client = server.client()
    job = tiny_job(engine="surrogate")
    result = client.wait(client.submit(job)["key"])["result"]
    batch = measure_curve_fixed(
        WS,
        [2.0, 8.0],
        benchmark="svc.tiny",
        engine="surrogate",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    assert result["rows"] == batch.to_rows()
    assert set(result["quality"].values()) == {"surrogate"}


# -- admission control -------------------------------------------------------------


def test_queue_bound_rejects_with_409(tmp_path):
    with ServerThread(
        tmp_path / "state", tmp_path / "svc.sock", job_workers=1, queue_size=1
    ) as srv:
        client = srv.client()
        keys = []
        rejected = 0
        for s in range(100, 120):
            try:
                keys.append(client.submit(tiny_job(seed=s))["key"])
            except ServiceError as e:
                assert e.status == 409
                rejected += 1
        assert rejected > 0, "queue bound never tripped"
        assert keys, "every submit was rejected"
        for key in keys:
            client.wait(key)


def test_client_quota_rejects_with_429(tmp_path):
    with ServerThread(
        tmp_path / "state", tmp_path / "svc.sock", job_workers=1, quota=2
    ) as srv:
        greedy = srv.client("greedy")
        keys = []
        overflows = 0
        for s in range(200, 210):
            try:
                keys.append(greedy.submit(tiny_job(seed=s))["key"])
            except ServiceError as e:
                assert e.status == 429
                overflows += 1
        assert overflows > 0, "quota never tripped"
        # another tenant is not throttled by greedy's backlog
        other = srv.client("polite")
        keys.append(other.submit(tiny_job(seed=300))["key"])
        for key in keys:
            other.wait(key)


# -- eviction + warm start through the service -------------------------------------


def test_eviction_then_resubmit_recomputes_from_point_cache(tmp_path):
    with ServerThread(
        tmp_path / "state", tmp_path / "svc.sock", store_max=1
    ) as srv:
        client = srv.client()
        k1 = client.submit(tiny_job(seed=21))["key"]
        rows1 = client.wait(k1)["result"]["rows"]
        k2 = client.submit(tiny_job(seed=22))["key"]
        client.wait(k2)
        assert srv.server.store.evictions == 1  # k1 evicted by k2
        # the evicted answer re-executes, but every point is a cache hit
        again = client.submit(tiny_job(seed=21))
        assert again["state"] == "queued"
        result = client.wait(k1)["result"]
        assert result["rows"] == rows1
        assert result["stats"]["measured"] == 0
        assert result["stats"]["journal_hits"] + result["stats"]["cache_hits"] == 2


def test_parent_service_journal_recovers_only_unfinished_jobs(tmp_path):
    """The service journal replays last-writer-wins per job key, like any
    run journal: only a job whose last task record is ``running`` comes
    back; a done job, a quarantined (failed) job and a torn tail do not."""
    from repro.core.journal import RunJournal, journal_path
    from repro.service.server import SweepServer

    wire = job_to_wire(tiny_job())
    done, pending, failed = "a" * 64, "b" * 64, "c" * 64
    with RunJournal.start(tmp_path, "service") as journal:
        for key in (done, pending, failed):
            journal.mark(key, "running", wire)
        journal.mark(done, "done")
        journal.mark(failed, "quarantined")
    with journal_path(tmp_path, "service").open("a") as fh:
        fh.write('{"type": "task", "id": "torn')
    server = SweepServer(tmp_path)
    try:
        assert server._recover_jobs() == [tiny_job()]
        assert server.stats["jobs_unrecoverable"] == 0
    finally:
        asyncio.run(server.stop())


def test_stop_closes_the_service_journal(tmp_path):
    from repro.core.journal import journal_path

    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        journal = srv.server._journal
        assert not journal.closed
    assert journal.closed
    # a job thread that outlives stop() finds the journal closed: it
    # neither raises nor appends, so its job stays ``running`` for the next start
    path = journal_path(tmp_path / "state", "service")
    before = path.read_text()
    srv.server._journal_job("a" * 64, "done")
    assert path.read_text() == before


def test_job_named_service_leaves_the_service_journal_alone(tmp_path):
    """A job's ``run_id`` may be ``"service"``: its run journal lives under
    ``journals/``, so the service journal keeps every job's records and a
    restart recovers the jobs as their last states say."""
    from repro.core.journal import JournalState

    state = tmp_path / "state"
    named, other = tiny_job(run_id="service"), tiny_job(seed=41)
    with ServerThread(state, tmp_path / "svc.sock") as srv:
        client = srv.client()
        keys = [client.submit(job)["key"] for job in (named, other)]
        rows = [client.wait(key)["result"]["rows"] for key in keys]
    assert JournalState.load(state, "service").tasks == {key: "done" for key in keys}
    assert JournalState.load(state / "journals", "service").done_indices() == {0, 1}
    with ServerThread(state, tmp_path / "svc2.sock") as srv:
        client = srv.client()
        stats = client.stats()["stats"]
        assert [client.fetch(key)["result"]["rows"] for key in keys] == rows
    assert stats["jobs_recovered"] == 0 and stats["jobs_unrecoverable"] == 0
    replayed = JournalState.load(state, "service")
    assert replayed.generations == 2
    assert replayed.tasks == {key: "done" for key in keys}


@pytest.mark.parametrize(
    "text", ['{"type": "task", "id": "a', '{"type": "run_start", "journal_format": 99}\n'],
    ids=["headless", "foreign"],
)
def test_unreadable_service_journal_is_replaced_not_fatal(tmp_path, caplog, text):
    from repro.core.journal import JournalState, journal_path

    state = tmp_path / "state"
    state.mkdir()
    journal_path(state, "service").write_text(text)
    with caplog.at_level("WARNING", logger="repro.service"):
        with ServerThread(state, tmp_path / "svc.sock") as srv:
            client = srv.client()
            key = client.submit(tiny_job(seed=42))["key"]
            client.wait(key)
    assert any("service journal" in r.getMessage() for r in caplog.records)
    replayed = JournalState.load(state, "service")
    assert replayed.generations == 1 and replayed.tasks == {key: "done"}


def test_warm_start_after_restart_serves_without_executing(tmp_path):
    job = tiny_job(seed=31)
    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        client = srv.client()
        key = client.submit(job)["key"]
        rows = client.wait(key)["result"]["rows"]
    # a fresh process on the same state dir: answered from the warm store
    with ServerThread(tmp_path / "state", tmp_path / "svc2.sock") as srv:
        client = srv.client()
        reply = client.submit(job)
        assert reply["state"] == "done" and reply["cached"]
        assert client.fetch(key)["result"]["rows"] == rows
        assert srv.server.stats["jobs_executed"] == 0
        events = list(client.watch(key))
        assert events[-1]["type"] == "finished"


# -- failure surfacing -------------------------------------------------------------


def test_failed_job_reports_and_allows_resubmit(tmp_path, monkeypatch):
    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        client = srv.client()
        job = tiny_job(seed=41, run_id="clash")
        # poison the run id with a foreign journal head so execution fails
        from repro.core.journal import RunJournal

        RunJournal.start(
            srv.server.journal_dir, "clash", spec_sha="f" * 64, sizes_mb=[1.0]
        ).close()
        key = client.submit(job)["key"]
        events = list(client.watch(key))
        assert events[-1]["type"] == "failed"
        assert client.status(key)["state"] == "failed"
        with pytest.raises(ServiceError) as err:
            client.fetch(key)
        assert err.value.status == 409
        assert srv.server.stats["jobs_failed"] == 1


def test_nehalem_default_machine_on_wire():
    # the default machine travels explicitly, so server and client defaults
    # can never drift apart
    wire = job_to_wire(tiny_job())
    assert wire["machine"]["l3"]["size"] == nehalem_config().l3.size
