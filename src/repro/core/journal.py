"""Crash-safe run journals: append-only JSONL write-ahead logs.

A long sweep that dies — SIGKILL, OOM, power loss — must be resumable
without re-measuring what it already finished.  The
:class:`~repro.core.parallel.SweepCache` already gives *content-keyed*
resume; the journal adds *run-keyed* resume: every supervised sweep,
every ``runall`` invocation and the curve service append their lifecycle
to one JSONL file named by a run id, fsynced per record, so the on-disk
state is a consistent prefix of the run's history no matter when the
process dies.

One journal type serves every granularity.  A supervised sweep records
per *sweep point* states (``running`` → ``done``/``quarantined``), each
``done`` record carrying the full point payload, so ``repro sweep --resume
<run-id>`` rebuilds finished points from the journal alone — zero
re-measurement — and executes exactly the remainder
(``tests/test_journal.py``).  Coarser work records *tasks*: ``runall``
one per experiment id, the curve service one per job key (``running``
carrying the job's wire form, then ``done``, or ``quarantined`` for a
failed job that is never re-run).  Replay is last-writer-wins per point
index or task id (:func:`last_records`).

Crash tolerance is structural: records are appended with flush+fsync, and
readers ignore any line that does not parse — a process killed mid-append
leaves at most one torn trailing line, which replay treats as never
written.  The journal head pins a ``spec_sha`` (content hash of the full
measurement configuration plus the size grid), and resume refuses a run id
whose journal was written by a different sweep — a resumed run can never
silently mix points from two configurations.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import MeasurementError

#: Bump when the journal record layout changes; checked on replay.
JOURNAL_FORMAT_VERSION = 1

#: Point/task lifecycle states a journal records.
JOURNAL_STATES = ("running", "done", "quarantined")


def new_run_id() -> str:
    """A fresh journal run id (short, filesystem-safe, collision-proof)."""
    return uuid.uuid4().hex[:12]


def check_run_id(run_id, error: type[Exception] = MeasurementError) -> str:
    """``run_id`` if it is safe as a journal file name, else raise ``error``.

    The rule: a non-empty ``str`` with no ``/``, no NUL byte and no
    surrounding whitespace.
    """
    bad = not isinstance(run_id, str) or not run_id or run_id != run_id.strip()
    if bad or "/" in run_id or "\0" in run_id:
        raise error(
            f"invalid run id {run_id!r}: needs a non-empty string without '/', "
            "NUL or surrounding whitespace"
        )
    return run_id


def journal_path(root: str | Path, run_id: str) -> Path:
    """Where run ``run_id``'s journal lives under ``root``."""
    return Path(root) / f"{check_run_id(run_id)}.journal.jsonl"


def read_journal_records(path: str | Path) -> list[dict]:
    """Every parseable record of a journal file, in write order.

    Unparseable lines — the torn tail of a crashed append, or garbage from
    a corrupted disk — are skipped, never fatal: a journal is a write-ahead
    log, so a record that did not fully land was never promised.
    """
    records: list[dict] = []
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise MeasurementError(f"cannot read journal {path}: {e}") from None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def last_records(records, kind: str, by: str, landed) -> dict:
    """Last-writer-wins replay: the last ``kind`` record per value of ``by``.

    ``landed(record)`` filters out records that did not fully land (a torn
    payload, a foreign format) *before* they can shadow the record they
    would have replaced.
    """
    last: dict = {}
    for r in records:
        key = r.get(by)
        if (
            r.get("type") == kind
            and isinstance(key, (int, str))
            and key != ""
            and landed(r)
        ):
            last[key] = r
    return last


def _ends_torn(path: Path) -> bool:
    """True when ``path`` is non-empty and its last line has no newline."""
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except OSError:  # missing or empty
        return False


class _JournalWriter:
    """Append-only JSONL writer with per-record durability (flush + fsync)."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        torn = _ends_torn(self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        if torn:
            # end the crash-torn last line, or the next record would be
            # glued onto it and lost with it
            self._fh.write("\n")

    def append(self, record: dict) -> None:
        """Durably append one record; a crash can tear at most this line."""
        if self._fh is None:
            raise MeasurementError(f"journal {self.path} is closed")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    @property
    def closed(self) -> bool:
        return self._fh is None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- the run journal ----------------------------------------------------------------


class RunJournal:
    """The write-ahead journal of one run: sweep points or coarse tasks.

    Lifecycle: :meth:`start` writes the ``run_start`` head (run id, spec
    hash, size grid); a supervised sweep then marks every point ``running``
    before it executes and ``done`` (with its full payload) or
    ``quarantined`` (with its failure reasons) after, while ``runall``
    and the curve service mark coarse tasks (:meth:`mark`: experiment ids
    without payloads, job keys whose ``running`` record carries the job).
    :meth:`resume` reopens an existing journal for appending and stamps a
    ``run_resume`` marker, so a journal records every generation that
    touched it.
    """

    def __init__(self, path: Path, run_id: str):
        self.run_id = run_id
        self._writer = _JournalWriter(path)

    @property
    def path(self) -> Path:
        return self._writer.path

    @classmethod
    def start(
        cls,
        root: str | Path,
        run_id: str,
        *,
        spec_sha: str = "",
        sizes_mb: list[float] | None = None,
        meta: dict | None = None,
    ) -> "RunJournal":
        """Open a fresh journal and durably write its ``run_start`` head."""
        path = journal_path(root, run_id)
        if path.exists():
            raise MeasurementError(
                f"journal for run {run_id!r} already exists at {path}; "
                f"pass resume=True to continue it or pick a new run id"
            )
        head = {
            "type": "run_start",
            "journal_format": JOURNAL_FORMAT_VERSION,
            "run_id": run_id,
            "spec_sha": spec_sha,
            "meta": meta or {},
        }
        if sizes_mb is not None:
            head["sizes_mb"] = [float(s) for s in sizes_mb]
        journal = cls(path, run_id)
        journal._writer.append(head)
        return journal

    @classmethod
    def resume(cls, root: str | Path, run_id: str) -> "RunJournal":
        """Reopen an existing journal for appending (stamps ``run_resume``)."""
        path = journal_path(root, run_id)
        if not path.exists():
            raise MeasurementError(f"no journal for run {run_id!r} under {root}")
        journal = cls(path, run_id)
        journal._writer.append({"type": "run_resume", "run_id": run_id})
        return journal

    def mark_running(self, index: int, attempt: int = 1) -> None:
        self._writer.append(
            {"type": "point", "index": int(index), "state": "running", "attempt": attempt}
        )

    def mark_done(self, index: int, payload: dict) -> None:
        """Record a finished point *with its payload* — resume re-measures nothing."""
        self._writer.append(
            {"type": "point", "index": int(index), "state": "done", "payload": payload}
        )

    def mark_quarantined(self, index: int, *, attempts: int, reasons: list[str]) -> None:
        self._writer.append(
            {
                "type": "point",
                "index": int(index),
                "state": "quarantined",
                "attempts": int(attempts),
                "reasons": list(reasons),
            }
        )

    def mark(self, task_id: str, state: str, payload: dict | None = None) -> None:
        """Record a coarse task's state, optionally with a payload."""
        if state not in JOURNAL_STATES:
            raise MeasurementError(f"unknown journal state {state!r}")
        record = {"type": "task", "id": str(task_id), "state": state}
        if payload is not None:
            record["payload"] = payload
        self._writer.append(record)

    @property
    def closed(self) -> bool:
        return self._writer.closed

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _point_landed(r: dict) -> bool:
    state = r.get("state")
    if not isinstance(r.get("index"), int) or state not in JOURNAL_STATES:
        return False
    # a done record torn mid-payload: the point never finished
    return state != "done" or isinstance(r.get("payload"), dict)


def _task_landed(r: dict) -> bool:
    return r.get("state") in JOURNAL_STATES and isinstance(r.get("payload", {}), dict)


@dataclass
class JournalState:
    """A journal replayed into its last-writer-wins point and task states."""

    run_id: str
    spec_sha: str
    sizes_mb: list[float] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: point index -> last recorded state ("running"/"done"/"quarantined")
    states: dict[int, str] = field(default_factory=dict)
    #: point index -> payload of its ``done`` record
    payloads: dict[int, dict] = field(default_factory=dict)
    #: point index -> {"attempts", "reasons"} of its ``quarantined`` record
    quarantined: dict[int, dict] = field(default_factory=dict)
    #: task id -> last recorded state
    tasks: dict[str, str] = field(default_factory=dict)
    #: task id -> payload of its last record, when that record carries one
    task_payloads: dict[str, dict] = field(default_factory=dict)
    #: how many generations wrote this journal (1 + number of resumes)
    generations: int = 1

    @classmethod
    def load(cls, root: str | Path, run_id: str) -> "JournalState":
        """Replay a journal file; raises when its head is missing/foreign."""
        records = read_journal_records(journal_path(root, run_id))
        head = next((r for r in records if r.get("type") == "run_start"), None)
        if head is None:
            raise MeasurementError(
                f"journal for run {run_id!r} has no run_start head "
                f"(torn before the first record landed?); start a fresh run"
            )
        if head.get("journal_format") != JOURNAL_FORMAT_VERSION:
            raise MeasurementError(
                f"journal for run {run_id!r} has format "
                f"{head.get('journal_format')!r}, expected {JOURNAL_FORMAT_VERSION}"
            )
        state = cls(
            run_id=run_id,
            spec_sha=str(head.get("spec_sha", "")),
            sizes_mb=[float(s) for s in head.get("sizes_mb", [])],
            meta=dict(head.get("meta", {})),
            generations=1 + sum(r.get("type") == "run_resume" for r in records),
        )
        for index, r in last_records(records, "point", "index", _point_landed).items():
            state.states[index] = r["state"]
            if r["state"] == "done":
                state.payloads[index] = r["payload"]
            elif r["state"] == "quarantined":
                state.quarantined[index] = {
                    "attempts": int(r.get("attempts", 0)),
                    "reasons": [str(x) for x in r.get("reasons", [])],
                }
        for task, r in last_records(records, "task", "id", _task_landed).items():
            state.tasks[str(task)] = r["state"]
            if "payload" in r:
                state.task_payloads[str(task)] = r["payload"]
        return state

    def done_indices(self) -> set[int]:
        return {i for i, s in self.states.items() if s == "done"}

    def done_ids(self) -> set[str]:
        """Task ids whose last state is ``done``."""
        return {t for t, s in self.tasks.items() if s == "done"}

    def remaining(self, n_points: int) -> list[int]:
        """Point indexes a resumed run still has to execute."""
        settled = {i for i, s in self.states.items() if s in ("done", "quarantined")}
        return [i for i in range(n_points) if i not in settled]
