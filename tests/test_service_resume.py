"""Journal head pinning: the CLI and the server must agree, and survive kills.

``repro sweep --journal-dir/--resume`` and the service both pin a run
journal to :func:`sweep_spec_sha`.  These tests prove the two paths
agree in both directions — a journal written by the batch CLI resumes
under the server and vice versa — plus the regression for the bug that
used to break that promise: ``spec_token`` hashed the machine's
``kernel`` field (execution strategy, bit-identical by proof) into cache
keys and journal pins while the grid compiler excluded it, so a journal
written under one kernel mode refused to resume under another.  A job
journaled under a kernel mode that no longer exists is counted and
logged on restart, not dropped silently.  The SIGKILL test then drives the whole story end to end: a real server
killed mid-sweep, restarted, and resumed with zero re-measured points.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import KERNEL_MODES, machine_content_token, machine_from_dict, nehalem_config
from repro.core.journal import JournalState, RunJournal, journal_path, read_journal_records
from repro.core.parallel import (
    SupervisorPolicy,
    SweepSpec,
    point_cache_key,
    run_sweep,
    spec_token,
    sweep_points,
    sweep_spec_sha,
)
from repro.errors import ConfigError
from repro.scenarios.grid import _machine_token, compile_grid
from repro.service import JobSpec, ServiceClient, job_key, job_run_id
from repro.service.protocol import ServiceError, job_from_wire, job_to_wire
from repro.workloads import TargetSpec

WS = TargetSpec(kind="micro.random", working_set_mb=1.0, seed=7)
SIZES = [8.0, 2.0]

#: the default failure budget: what ``repro sweep --journal-dir`` runs under
SUPERVISED = SupervisorPolicy()


def tiny_job(**overrides) -> JobSpec:
    defaults = dict(
        workload=WS,
        sizes_mb=tuple(SIZES),
        benchmark="svc.resume",
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def batch_spec(job: JobSpec) -> SweepSpec:
    return job.sweep_spec()


# -- the kernel-field regression ---------------------------------------------------


def test_spec_token_excludes_kernel():
    """Every kernel mode shares cache keys and journal pins."""
    job = tiny_job()
    tokens = set()
    shas = set()
    keys = set()
    for kernel in KERNEL_MODES:
        spec = replace(batch_spec(job), config=nehalem_config(kernel=kernel))
        tokens.add(json.dumps(spec_token(spec), sort_keys=True))
        shas.add(sweep_spec_sha(spec, SIZES))
        keys.add(point_cache_key(spec, sweep_points(spec, SIZES)[0]))
    assert len(tokens) == 1
    assert len(shas) == 1
    assert len(keys) == 1


# -- keys written before L3 set sampling was removed ----------------------------

#: ``job_to_wire(tiny_job())["machine"]`` as clients and service journals
#: wrote it while ``MachineConfig`` still had a ``sample_sets`` field
PRE_REMOVAL_MACHINE = {
    "num_cores": 4,
    "core": {
        "clock_hz": 2260000000.0, "l2_hit_latency": 10.0, "l3_hit_latency": 38.0,
        "dram_latency": 190.0, "l3_port_bytes_per_cycle": 12.4,
    },
    "l1": {
        "name": "L1", "size": 32768, "ways": 8, "line_size": 64, "policy": "plru",
        "inclusive": False, "shared": False, "write_allocate": True, "write_back": True,
    },
    "l2": {
        "name": "L2", "size": 262144, "ways": 8, "line_size": 64, "policy": "plru",
        "inclusive": False, "shared": False, "write_allocate": True, "write_back": True,
    },
    "l3": {
        "name": "L3", "size": 8388608, "ways": 16, "line_size": 64, "policy": "nru",
        "inclusive": True, "shared": True, "write_allocate": True, "write_back": True,
    },
    "dram_bandwidth_gbps": 10.4,
    "l3_bandwidth_gbps": 68.0,
    "prefetch_enabled": True,
    "private_data": True,
    "prefetch_trigger": 2,
    "prefetch_degree": 4,
    "kernel": "auto",
    "sample_sets": 1,
}

#: one grid cell (tiny machine, one point), for its pre-removal cell key
PIN_GRID = {
    "name": "pin",
    "axes": {
        "workload": [{"family": "micro.random", "working_set_mb": 1.0}],
        "machine": [{"geometry": "tiny", "l3_mb": 0.0625, "l3_ways": 8}],
        "pirate": [{"sizes_mb": [0.03125]}],
    },
    "sweep": {"interval_instructions": 20000},
}


def test_content_keys_survive_set_sampling_removal():
    """Sweep-cache entries, run/service journals, service store entries
    and grid cell artifacts written before the removal keep their keys."""
    spec = batch_spec(tiny_job())
    assert point_cache_key(spec, sweep_points(spec, SIZES)[0]) == (
        "c1d75d8e28fe1ed54322980e7f30ff5cb2fc83d2286b476b43e06c25ed989390"
    )
    assert sweep_spec_sha(spec, SIZES) == (
        "b2ac8db7e1ff467bb806fd80756a270dc40a38f6eebb6e672579215288171155"
    )
    assert job_key(tiny_job()) == (
        "64c6c49a71bdffa982c7f2b8667df9e9b9695e0aed7bbf5b820d963019b36fbc"
    )
    assert [c.key for c in compile_grid(PIN_GRID).cells] == [
        "4049caf8c3845a67ff903bd37b3c6a6ff30cff1565c60f04c1e5eb53222a26cd"
    ]


def test_pre_removal_journaled_job_resumes(tmp_path):
    """A pre-removal wire job, journaled as submitted, is rebuilt on restart
    and resumes its run journal without re-measuring a point."""
    job = tiny_job()
    wire = job_to_wire(job)
    wire["machine"] = dict(PRE_REMOVAL_MACHINE)
    assert machine_content_token(machine_from_dict(wire["machine"])) == (
        machine_content_token(nehalem_config())
    )
    key = job_key(job_from_wire(wire))
    assert key == job_key(job)
    journals = tmp_path / "state" / "journals"
    run_sweep(
        batch_spec(job), SIZES, journal_dir=journals, run_id=job_run_id(key), policy=SUPERVISED
    )
    with RunJournal.start(tmp_path / "state", "service") as journal:
        journal.mark(key, "running", wire)
    from repro.service import ServerThread

    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        client = srv.client()
        result = client.wait(key)["result"]
        stats = client.stats()["stats"]
    assert stats["jobs_recovered"] == 1
    assert stats["jobs_unrecoverable"] == 0
    assert result["stats"]["measured"] == 0
    assert result["stats"]["journal_hits"] == len(SIZES)


def test_sampled_machine_is_a_one_line_error():
    data = dict(PRE_REMOVAL_MACHINE, sample_sets=8)
    with pytest.raises(ConfigError, match="set sampling was removed") as e:
        machine_from_dict(data)
    assert "\n" not in str(e.value)
    wire = job_to_wire(tiny_job())
    wire["machine"] = data
    with pytest.raises(ServiceError, match="set sampling was removed"):
        job_from_wire(wire)


def test_machine_content_token_shared_by_grid_and_sweeps():
    """One helper defines machine content for cells, caches, and journals."""
    config = nehalem_config(kernel="scalar")
    token = machine_content_token(config)
    assert "kernel" not in token
    assert token == _machine_token(config)
    assert spec_token(batch_spec(tiny_job()))["machine"] == machine_content_token(
        nehalem_config()
    )


def test_journal_written_under_auto_resumes_under_scalar(tmp_path):
    """The user-facing consequence of the fix, end to end."""
    job = tiny_job()
    auto = replace(batch_spec(job), config=nehalem_config(kernel="auto"))
    scalar = replace(batch_spec(job), config=nehalem_config(kernel="scalar"))
    results_v, stats_v = run_sweep(
        auto, SIZES, journal_dir=tmp_path, run_id="xkernel", policy=SUPERVISED
    )
    assert stats_v.measured == len(SIZES)
    results_s, stats_s = run_sweep(
        scalar, SIZES, journal_dir=tmp_path, run_id="xkernel", resume=True, policy=SUPERVISED
    )
    assert stats_s.measured == 0
    assert stats_s.journal_hits == len(SIZES)
    assert [r.samples for r in sorted(results_s, key=lambda r: r.index)] == [
        r.samples for r in sorted(results_v, key=lambda r: r.index)
    ]


# -- CLI <-> server agreement ------------------------------------------------------


def test_cli_journal_resumes_under_server(tmp_path):
    """A journal written by ``repro sweep`` machinery resumes server-side."""
    from repro.service import ServerThread

    job = tiny_job(run_id="handoff")
    state = tmp_path / "state"
    journals = state / "journals"
    # the batch path: exactly what cmd_sweep does with --journal-dir
    results, stats = run_sweep(
        batch_spec(job),
        SIZES,
        journal_dir=journals,
        run_id="handoff",
        policy=SUPERVISED,
    )
    assert stats.measured == len(SIZES)
    with ServerThread(state, tmp_path / "svc.sock") as srv:
        client = srv.client()
        reply = client.submit(job)
        result = client.wait(reply["key"])["result"]
    assert result["stats"]["measured"] == 0
    assert result["stats"]["journal_hits"] == len(SIZES)
    assert result["stats"]["run_id"] == "handoff"


def test_server_journal_resumes_under_cli(tmp_path):
    """The reverse direction: the server's journal feeds ``--resume``."""
    from repro.service import ServerThread

    job = tiny_job()
    key = job_key(job)
    state = tmp_path / "state"
    with ServerThread(state, tmp_path / "svc.sock") as srv:
        client = srv.client()
        baseline = client.wait(client.submit(job)["key"])["result"]["rows"]
    run_id = job_run_id(key)
    assert journal_path(state / "journals", run_id).exists()
    # what cmd_sweep --resume does with the same spec
    results, stats = run_sweep(
        batch_spec(job),
        SIZES,
        journal_dir=state / "journals",
        run_id=run_id,
        resume=True,
        policy=SUPERVISED,
    )
    assert stats.measured == 0
    assert stats.journal_hits == len(SIZES)
    from repro.analysis.merge import assemble_curve

    rows = assemble_curve(
        "svc.resume", results, nehalem_config().core.clock_hz
    ).to_rows()
    assert rows == baseline


def test_server_refuses_foreign_journal_under_user_run_id(tmp_path):
    """A user-supplied run id pinning a different sweep fails loudly."""
    from repro.service import ServerThread

    other = tiny_job(seed=99)
    state = tmp_path / "state"
    run_sweep(
        batch_spec(other), SIZES, journal_dir=state / "journals", run_id="stolen", policy=SUPERVISED
    )
    with ServerThread(state, tmp_path / "svc.sock") as srv:
        client = srv.client()
        job = tiny_job(run_id="stolen")  # same run id, different content
        key = client.submit(job)["key"]
        events = list(client.watch(key))
        assert events[-1]["type"] == "failed"
        assert "refusing to resume" in events[-1]["error"]
        # the executor refused the journal, so no resume is claimed
        assert "resumed" not in [e["type"] for e in events]
    # the foreign journal was not deleted
    assert journal_path(state / "journals", "stolen").exists()


def test_torn_headless_job_journal_restarts_clean(tmp_path):
    """A journal torn before its head landed is discarded, not fatal."""
    from repro.service import ServerThread

    job = tiny_job()
    state = tmp_path / "state"
    journals = state / "journals"
    journals.mkdir(parents=True)
    run_id = job_run_id(job_key(job))
    journal_path(journals, run_id).write_text('{"type": "point", "ind')  # torn
    with ServerThread(state, tmp_path / "svc.sock") as srv:
        client = srv.client()
        result = client.wait(client.submit(job)["key"])["result"]
    assert result["stats"]["measured"] == len(SIZES)
    assert result["stats"]["journal_hits"] == 0


def test_journaled_job_with_retired_kernel_is_counted_on_restart(tmp_path, caplog):
    """A job journaled under a retired kernel mode cannot be rebuilt.

    The restart must neither crash nor drop it silently: it is counted in
    ``jobs_unrecoverable`` and logged once with its key and the reason,
    and the jobs that do decode are still recovered.
    """
    from repro.service import ServerThread

    state = tmp_path / "state"
    good = tiny_job()
    retired = job_to_wire(tiny_job(seed=5))
    retired["machine"]["kernel"] = "batch"
    with RunJournal.start(state, "service") as journal:
        journal.mark("old-batch-job", "running", retired)
        journal.mark(job_key(good), "running", job_to_wire(good))
    with caplog.at_level("WARNING", logger="repro.service"):
        with ServerThread(state, tmp_path / "svc.sock") as srv:
            stats = srv.client().stats()["stats"]
    assert stats["jobs_unrecoverable"] == 1
    assert stats["jobs_recovered"] == 1
    logged = [r.getMessage() for r in caplog.records if r.name == "repro.service"]
    assert len(logged) == 1
    assert "old-batch-job" in logged[0] and "kernel mode 'batch' was retired" in logged[0]


# -- SIGKILL the server mid-sweep --------------------------------------------------


def _submit_over_socket(sock_path: Path, job: JobSpec, timeout: float = 30.0) -> str:
    client = ServiceClient(socket_path=sock_path, timeout=timeout)
    return client.submit(job)["key"]


def _wait_for_socket(sock_path: Path, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if sock_path.exists():
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(str(sock_path))
                probe.close()
                return
            except OSError:
                pass
        time.sleep(0.05)
    raise AssertionError(f"server socket {sock_path} never came up")


def _serve_cmd(sock: Path, state: Path) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--socket",
        str(sock),
        "--state-dir",
        str(state),
        "--job-workers",
        "1",
    ]


@pytest.mark.slow
def test_sigkill_server_mid_sweep_then_restart_resumes(tmp_path):
    """Kill -9 a real server mid-sweep; the restart re-executes nothing done.

    The acceptance criterion in full: after SIGKILL, a fresh server on the
    same state dir recovers the orphaned job from the service journal,
    resumes its run journal, replays every completed point
    (``journal_hits == done-at-kill``), measures only the remainder, and
    serves rows bit-identical to an undisturbed batch run.
    """
    sock = tmp_path / "svc.sock"
    state = tmp_path / "state"
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    # six points at a long interval: plenty of wall-clock to aim the kill
    job = tiny_job(
        sizes_mb=(8.0, 6.0, 4.0, 2.0, 1.0, 0.5),
        interval_instructions=150_000.0,
        benchmark="svc.kill",
    )
    key = job_key(job)
    run_id = job_run_id(key)
    jpath = journal_path(state / "journals", run_id)

    proc = subprocess.Popen(
        _serve_cmd(sock, state), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_socket(sock)
        assert _submit_over_socket(sock, job) == key
        # kill the moment the run journal shows >= 1 finished point
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if jpath.exists() and any(
                r.get("state") == "done" for r in read_journal_records(jpath)
            ):
                break
            time.sleep(0.01)
        else:
            raise AssertionError("server never journaled a finished point")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    state_at_kill = JournalState.load(state / "journals", run_id)
    done_at_kill = {
        i for i, s in state_at_kill.states.items() if s == "done"
    }
    assert done_at_kill, "kill landed before any point finished"
    assert len(done_at_kill) < len(job.sizes_mb), "kill landed after the sweep"
    # the service journal still says running (never done): an orphan
    assert JournalState.load(state, "service").tasks == {key: "running"}

    proc = subprocess.Popen(
        _serve_cmd(sock, state), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_socket(sock)
        client = ServiceClient(socket_path=sock, timeout=30.0)
        result = client.wait(key, timeout=240.0)["result"]
    finally:
        proc.terminate()
        proc.wait(timeout=30)

    # the restart resumed the one service journal rather than starting another
    assert JournalState.load(state, "service").generations == 2
    # zero re-executed completed points
    assert result["stats"]["journal_hits"] == len(done_at_kill)
    assert result["stats"]["measured"] == len(job.sizes_mb) - len(done_at_kill)
    assert result["stats"]["quarantined"] == 0
    # and the curve is bit-identical to an undisturbed batch run
    from repro.core import measure_curve_fixed

    batch = measure_curve_fixed(
        WS,
        list(job.sizes_mb),
        benchmark="svc.kill",
        interval_instructions=150_000.0,
        n_intervals=1,
        seed=11,
    )
    assert result["rows"] == batch.to_rows()
    # exactly one done record per pre-kill point: nothing ran twice
    per_index = {}
    for r in read_journal_records(jpath):
        if r.get("type") == "point" and r.get("state") == "done":
            per_index[r["index"]] = per_index.get(r["index"], 0) + 1
    for index in done_at_kill:
        assert per_index[index] == 1
