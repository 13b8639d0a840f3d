"""Run journals: durability, torn-tail tolerance, and resume semantics.

The journal's contract: after a crash at *any* point in a supervised
sweep, ``resume`` replays every journaled-done point from the journal
alone and executes exactly the remainder — results bit-identical to an
uninterrupted run, for any worker count.  The SIGKILL test proves the
"any point" part with a real process killed mid-sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.merge import assemble_curve
from repro.config import nehalem_config
from repro.core.journal import (
    JOURNAL_FORMAT_VERSION,
    JournalState,
    RunJournal,
    journal_path,
    new_run_id,
    read_journal_records,
)
from repro.core.parallel import (
    SupervisorPolicy,
    SweepSpec,
    result_to_payload,
    run_sweep,
    sweep_spec_sha,
)
from repro.errors import MeasurementError
from repro.workloads import TargetSpec

SIZES = [8.0, 4.0, 1.0]

#: the default failure budget: a supervised sweep
SUPERVISED = SupervisorPolicy()


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        target=TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7),
        benchmark="micro.random",
        config=nehalem_config(),
        interval_instructions=40_000.0,
        n_intervals=1,
        seed=11,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def rows(results, clock_hz=nehalem_config().core.clock_hz):
    return assemble_curve("t", results, clock_hz).to_rows()


@pytest.fixture(scope="module")
def serial_baseline():
    results, _ = run_sweep(small_spec(), SIZES, workers=0)
    return results


# -- primitives --------------------------------------------------------------------


def test_new_run_id_short_and_unique():
    ids = {new_run_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(i) == 12 and i.isalnum() for i in ids)


@pytest.mark.parametrize("bad", ["", "a/b", " pad ", "x/../y", "nul\0byte", 5, None])
def test_journal_path_rejects_unsafe_run_ids(tmp_path, bad):
    with pytest.raises(MeasurementError, match="run id"):
        journal_path(tmp_path, bad)


def test_read_journal_records_skips_garbage(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text(
        json.dumps({"type": "run_start"}) + "\n"
        + "{torn mid-wri"  # the crash-torn tail
        + "\n[1, 2, 3]\n"  # parseable but not a record
        + json.dumps({"type": "point", "index": 0, "state": "running"}) + "\n"
    )
    records = read_journal_records(path)
    assert [r["type"] for r in records] == ["run_start", "point"]


def test_read_journal_records_missing_file(tmp_path):
    with pytest.raises(MeasurementError, match="cannot read"):
        read_journal_records(tmp_path / "absent.jsonl")


# -- RunJournal lifecycle ----------------------------------------------------------


def test_run_journal_round_trip(tmp_path):
    with RunJournal.start(
        tmp_path, "run1", spec_sha="abc", sizes_mb=[8.0, 4.0], meta={"k": "v"}
    ) as journal:
        journal.mark_running(0, 1)
        journal.mark_done(0, {"index": 0, "size_mb": 8.0})
        journal.mark_running(1, 1)
        journal.mark_quarantined(1, attempts=2, reasons=["worker crash"])
    state = JournalState.load(tmp_path, "run1")
    assert state.spec_sha == "abc"
    assert state.sizes_mb == [8.0, 4.0]
    assert state.meta == {"k": "v"}
    assert state.states == {0: "done", 1: "quarantined"}
    assert state.payloads == {0: {"index": 0, "size_mb": 8.0}}
    assert state.quarantined[1]["reasons"] == ["worker crash"]
    assert state.remaining(3) == [2]
    assert state.generations == 1


def test_run_journal_start_refuses_existing(tmp_path):
    RunJournal.start(tmp_path, "dup", spec_sha="a", sizes_mb=[]).close()
    with pytest.raises(MeasurementError, match="already exists"):
        RunJournal.start(tmp_path, "dup", spec_sha="a", sizes_mb=[])


def test_run_journal_resume_refuses_missing(tmp_path):
    with pytest.raises(MeasurementError, match="no journal"):
        RunJournal.resume(tmp_path, "ghost")


def test_resume_counts_generations(tmp_path):
    RunJournal.start(tmp_path, "gen", spec_sha="a", sizes_mb=[]).close()
    RunJournal.resume(tmp_path, "gen").close()
    RunJournal.resume(tmp_path, "gen").close()
    assert JournalState.load(tmp_path, "gen").generations == 3


def test_load_rejects_headless_journal(tmp_path):
    journal_path(tmp_path, "torn").write_text("{broken\n")
    with pytest.raises(MeasurementError, match="no run_start head"):
        JournalState.load(tmp_path, "torn")


def test_load_rejects_foreign_format(tmp_path):
    journal_path(tmp_path, "old").write_text(
        json.dumps(
            {
                "type": "run_start",
                "journal_format": JOURNAL_FORMAT_VERSION + 1,
                "spec_sha": "a",
            }
        )
        + "\n"
    )
    with pytest.raises(MeasurementError, match="format"):
        JournalState.load(tmp_path, "old")


def test_last_writer_wins_and_torn_done_ignored(tmp_path):
    with RunJournal.start(tmp_path, "lw", spec_sha="a", sizes_mb=[]) as journal:
        journal.mark_quarantined(0, attempts=2, reasons=["x"])
        journal.mark_done(0, {"index": 0})  # a later generation redeemed it
    # a done record whose payload was torn away is treated as never written
    with open(journal_path(tmp_path, "lw"), "a") as fh:
        fh.write(json.dumps({"type": "point", "index": 1, "state": "done"}) + "\n")
    state = JournalState.load(tmp_path, "lw")
    assert state.states == {0: "done"}
    assert 0 not in state.quarantined
    assert state.remaining(2) == [1]


# -- journals older releases wrote --------------------------------------------------

#: a sweep-point journal byte for byte as ``journal_format`` 1 writers left it
PARENT_RUN_JOURNAL = (
    '{"journal_format": 1, "meta": {"k": "v"}, "run_id": "run1", "sizes_mb": [8.0, 4.0], '
    '"spec_sha": "abc", "type": "run_start"}\n'
    '{"attempt": 1, "index": 0, "state": "running", "type": "point"}\n'
    '{"index": 0, "payload": {"index": 0}, "state": "done", "type": "point"}\n'
    '{"attempt": 1, "index": 1, "state": "running", "type": "point"}\n'
    '{"attempts": 2, "index": 1, "reasons": ["worker crash"], "state": "quarantined", '
    '"type": "point"}\n'
    '{"run_id": "run1", "type": "run_resume"}\n'
)

#: a ``runall`` task journal byte for byte as ``journal_format`` 1 writers left it
PARENT_TASK_JOURNAL = (
    '{"journal_format": 1, "meta": {"scale": "quick"}, "run_id": "tasks", "spec_sha": "", '
    '"type": "run_start"}\n'
    '{"id": "fig1", "state": "running", "type": "task"}\n'
    '{"id": "fig1", "state": "done", "type": "task"}\n'
    '{"id": "fig2", "state": "running", "type": "task"}\n'
)


def test_run_journal_records_keep_their_bytes(tmp_path):
    with RunJournal.start(
        tmp_path, "run1", spec_sha="abc", sizes_mb=[8.0, 4.0], meta={"k": "v"}
    ) as journal:
        journal.mark_running(0, 1)
        journal.mark_done(0, {"index": 0})
        journal.mark_running(1, 1)
        journal.mark_quarantined(1, attempts=2, reasons=["worker crash"])
    RunJournal.resume(tmp_path, "run1").close()
    with RunJournal.start(tmp_path, "tasks", meta={"scale": "quick"}) as journal:
        journal.mark("fig1", "running")
        journal.mark("fig1", "done")
        journal.mark("fig2", "running")
    assert journal_path(tmp_path, "run1").read_text() == PARENT_RUN_JOURNAL
    assert journal_path(tmp_path, "tasks").read_text() == PARENT_TASK_JOURNAL


def test_parent_journals_resume(tmp_path):
    journal_path(tmp_path, "run1").write_text(PARENT_RUN_JOURNAL)
    journal_path(tmp_path, "tasks").write_text(PARENT_TASK_JOURNAL)
    RunJournal.resume(tmp_path, "run1").close()
    RunJournal.resume(tmp_path, "tasks").close()
    run = JournalState.load(tmp_path, "run1")
    assert run.states == {0: "done", 1: "quarantined"}
    assert run.payloads == {0: {"index": 0}}
    assert run.quarantined == {1: {"attempts": 2, "reasons": ["worker crash"]}}
    assert run.generations == 3
    tasks = JournalState.load(tmp_path, "tasks")
    assert tasks.tasks == {"fig1": "done", "fig2": "running"}
    assert tasks.done_ids() == {"fig1"} and tasks.generations == 2


# -- resume semantics (the satellite's property) -----------------------------------


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("n_done", [0, 1, 2, 3])
def test_resume_executes_exactly_the_remaining_points(
    tmp_path, serial_baseline, workers, n_done
):
    """Kill after N points -> resume runs exactly the rest, bit-identical."""
    spec = small_spec()
    spec_sha = sweep_spec_sha(spec, SIZES)
    run_id = f"resume{workers}n{n_done}"
    # simulate a run killed after journaling n_done points: the journal holds
    # their done payloads (written by the dead run) and nothing else
    with RunJournal.start(
        tmp_path, run_id, spec_sha=spec_sha, sizes_mb=SIZES
    ) as journal:
        for result in serial_baseline[:n_done]:
            journal.mark_running(result.index, 1)
            journal.mark_done(result.index, result_to_payload(result))

    results, stats = run_sweep(
        spec,
        SIZES,
        workers=workers,
        journal_dir=tmp_path,
        run_id=run_id,
        resume=True,
        policy=SUPERVISED,
    )
    assert stats.journal_hits == n_done
    assert stats.measured == len(SIZES) - n_done
    assert rows(results) == rows(serial_baseline)
    replayed = [r for r in results if r.from_journal]
    assert len(replayed) == n_done
    # the resumed generation journaled the remainder: the journal is now full
    state = JournalState.load(tmp_path, run_id)
    assert state.done_indices() == set(range(len(SIZES)))


def test_resume_refuses_spec_mismatch(tmp_path):
    spec = small_spec()
    run_id = "mismatch"
    RunJournal.start(
        tmp_path, run_id, spec_sha=sweep_spec_sha(spec, SIZES), sizes_mb=SIZES
    ).close()
    other = small_spec(seed=99)
    with pytest.raises(MeasurementError, match="different sweep"):
        run_sweep(
            other, SIZES, journal_dir=tmp_path, run_id=run_id, resume=True, policy=SUPERVISED
        )


def test_resume_replays_quarantined_points(tmp_path, serial_baseline):
    spec = small_spec()
    run_id = "quarrep"
    with RunJournal.start(
        tmp_path, run_id, spec_sha=sweep_spec_sha(spec, SIZES), sizes_mb=SIZES
    ) as journal:
        journal.mark_quarantined(0, attempts=2, reasons=["worker crash"])
    results, stats = run_sweep(
        spec, SIZES, journal_dir=tmp_path, run_id=run_id, resume=True, policy=SUPERVISED
    )
    assert stats.quarantined == 1
    assert stats.measured == len(SIZES) - 1
    by_index = {r.index: r for r in results}
    assert by_index[0].quality.quarantined
    survivors = [r for r in results if r.index != 0]
    assert rows(survivors) == rows([r for r in serial_baseline if r.index != 0])


_SIGKILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.config import nehalem_config
from repro.core.parallel import SupervisorPolicy, SweepSpec, run_sweep
from repro.workloads import TargetSpec

spec = SweepSpec(
    target=TargetSpec(kind="micro.random", working_set_mb=2.0, seed=7),
    benchmark="micro.random",
    config=nehalem_config(),
    interval_instructions=40_000.0,
    n_intervals=1,
    seed=11,
)
print("READY", flush=True)
run_sweep(
    spec, {sizes!r}, workers=0, journal_dir={journal!r}, run_id={run_id!r},
    policy=SupervisorPolicy(),
)
print("FINISHED", flush=True)
"""


def test_sigkill_mid_sweep_then_resume_completes(tmp_path, serial_baseline):
    """A real SIGKILL mid-sweep: resume finishes without re-measuring."""
    run_id = "sigkill1"
    script = _SIGKILL_SCRIPT.format(
        src=str(Path("src").resolve()),
        sizes=SIZES,
        journal=str(tmp_path),
        run_id=run_id,
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
    )
    try:
        # kill the child the moment its journal shows the first finished point
        path = journal_path(tmp_path, run_id)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished the whole sweep before we drew the knife
            if path.exists() and any(
                r.get("state") == "done" for r in read_journal_records(path)
            ):
                os.kill(proc.pid, signal.SIGKILL)
                break
            time.sleep(0.005)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    done_at_kill = JournalState.load(tmp_path, run_id).done_indices()
    assert done_at_kill, "the child never journaled a point"

    results, stats = run_sweep(
        small_spec(),
        SIZES,
        workers=0,
        journal_dir=tmp_path,
        run_id=run_id,
        resume=True,
        policy=SUPERVISED,
    )
    assert stats.journal_hits == len(done_at_kill)
    assert stats.measured == len(SIZES) - len(done_at_kill)
    assert rows(results) == rows(serial_baseline)


# -- task records (runall) ---------------------------------------------------------


def test_task_journal_round_trip(tmp_path):
    with RunJournal.start(tmp_path, "tasks", meta={"scale": "quick"}) as journal:
        journal.mark("fig1", "running")
        journal.mark("fig1", "done")
        journal.mark("fig2", "running")
    state = JournalState.load(tmp_path, "tasks")
    assert state.meta == {"scale": "quick"}
    assert state.tasks == {"fig1": "done", "fig2": "running"}
    assert state.states == {}
    assert state.done_ids() == {"fig1"}


def test_task_payload_is_the_last_records(tmp_path):
    """A task keeps the payload of its last record, the way a point keeps
    its ``done`` payload; a record torn to a non-dict payload never landed."""
    with RunJournal.start(tmp_path, "jobs") as journal:
        journal.mark("a", "running", {"job": 1})
        journal.mark("b", "running", {"job": 2})
        journal.mark("b", "done")
        journal.mark("c", "running", {"job": 3})
    with open(journal_path(tmp_path, "jobs"), "a") as fh:
        fh.write(json.dumps({"type": "task", "id": "c", "state": "done", "payload": 7}) + "\n")
    state = JournalState.load(tmp_path, "jobs")
    assert state.tasks == {"a": "running", "b": "done", "c": "running"}
    assert state.task_payloads == {"a": {"job": 1}, "c": {"job": 3}}


def test_resume_after_a_torn_tail_lands_on_its_own_line(tmp_path):
    with RunJournal.start(tmp_path, "torn") as journal:
        journal.mark("a", "running")
    with open(journal_path(tmp_path, "torn"), "a") as fh:
        fh.write('{"type": "task", "id": "a", "sta')  # killed mid-append
    with RunJournal.resume(tmp_path, "torn") as journal:
        journal.mark("a", "done")
    state = JournalState.load(tmp_path, "torn")
    assert state.generations == 2
    assert state.tasks == {"a": "done"}


def test_task_journal_rejects_unknown_state(tmp_path):
    with RunJournal.start(tmp_path, "bad") as journal:
        with pytest.raises(MeasurementError, match="unknown journal state"):
            journal.mark("fig1", "exploded")


def test_runall_resume_skips_done_experiments(tmp_path):
    from repro.experiments.runall import run_all

    lines: list[str] = []
    run_all(only=["table1", "fig3"], echo=lines.append,
            journal_dir=tmp_path, run_id="exp1")
    assert JournalState.load(tmp_path, "exp1").done_ids() == {"table1", "fig3"}

    resumed: list[str] = []
    run_all(only=["table1", "fig3"], echo=resumed.append,
            journal_dir=tmp_path, run_id="exp1", resume=True)
    text = "\n".join(resumed)
    assert "table1: skipped" in text and "fig3: skipped" in text
    assert "REPRO-BENCH" not in text  # nothing re-ran


def test_runall_resume_requires_journal_dir():
    from repro.experiments.runall import run_all

    with pytest.raises(ValueError, match="journal directory"):
        run_all(only=["table1"], echo=lambda *_: None, resume=True)
