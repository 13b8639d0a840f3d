"""The asyncio sweep server behind ``repro serve``.

Architecture (DESIGN.md §10): requests arrive over stdlib-only HTTP/1.1
(TCP or a unix socket), land in a bounded job queue, and are drained by
a small pool of job workers, each of which runs the job through the
same :func:`run_sweep` call the batch CLI makes, for every engine tier —
under a :class:`SupervisorPolicy` and a run journal for ``measure``
(resumable), unsupervised for the analytic ``surrogate`` and ``auto``
tiers.  Identical submissions coalesce on their content key *before* the
queue, so N clients asking for the same curve cost one execution;
finished curves live in a :class:`~repro.service.store.ResultStore`
(LRU, warm-started) and every point they were assembled from lives in
the shared :class:`~repro.core.parallel.SweepCache`, so even an evicted
answer is a recompute-from-hits, never a re-measurement.

Crash safety is one journal family at two granularities: the *service
journal* (``<state>/service.journal.jsonl``) is a
:class:`~repro.core.journal.RunJournal` of task records, one task per job
key, so a restarted server re-enqueues whatever was in flight; each
measured job runs under its own run journal in ``<state>/journals``,
keyed by a run id derived from the job's content key — a SIGKILL'd server
resumes mid-sweep with zero completed points re-executed.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ..analysis.merge import assemble_curve
from ..core.journal import JournalState, RunJournal, journal_path
from ..core.parallel import SupervisorPolicy, SweepCache, run_sweep, sweep_spec_sha
from ..errors import MeasurementError, ReproError
from ..observability import ensure_telemetry
from .protocol import (
    PROTOCOL_VERSION,
    TERMINAL_EVENTS,
    JobSpec,
    ServiceError,
    envelope,
    error_envelope,
    job_from_wire,
    job_key,
    job_to_wire,
)
from .store import ResultStore

_log = logging.getLogger("repro.service")

_MAX_BODY = 4 * 1024 * 1024


def job_run_id(key: str) -> str:
    """The run-journal id a job's measured sweep is journaled under.

    Derived from the content key, so a restarted server (or a second
    server on the same state dir) resumes the same journal — and so a
    CLI user can ``repro sweep --journal-dir <state>/journals --resume
    job-<key16>`` to adopt a server-side journal, or vice versa.
    """
    return f"job-{key[:16]}"


@dataclass
class Job:
    """One tracked submission: spec, lifecycle, and its event history."""

    key: str
    spec: JobSpec
    client: str = ""
    state: str = "queued"
    error: str = ""
    events: list[dict] = field(default_factory=list)
    watchers: set = field(default_factory=set)
    #: clients that asked for this job (for quota release on finish)
    clients: set = field(default_factory=set)


class SweepServer:
    """The service core, independent of any particular socket.

    ``sweep_workers`` is the *per-job* process-pool width handed to the
    engines (0 = in-thread serial, bit-identical either way);
    ``job_workers`` is how many jobs execute concurrently; ``queue_size``
    bounds accepted-but-unstarted jobs (409 beyond); ``quota`` caps one
    client's unfinished jobs (429 beyond, 0 = unlimited).
    ``drop_stream_after``, when set on a live server, cuts every
    ``/v1/watch`` stream after that many events without a terminal one:
    a transport fault that clients must survive with exactly-once
    delivery.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        job_workers: int = 2,
        sweep_workers: int = 0,
        queue_size: int = 64,
        store_max: int = 1024,
        quota: int = 0,
        point_timeout: float | None = None,
        telemetry=None,
    ):
        if job_workers < 1:
            raise ReproError("serve needs job_workers >= 1")
        if queue_size < 1:
            raise ReproError("serve needs queue_size >= 1")
        self.state_dir = Path(state_dir)
        self.cache_dir = self.state_dir / "cache"
        self.journal_dir = self.state_dir / "journals"
        for d in (self.state_dir, self.cache_dir, self.journal_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.job_workers = int(job_workers)
        self.sweep_workers = int(sweep_workers)
        self.queue_size = int(queue_size)
        self.quota = int(quota)
        self.point_timeout = point_timeout
        self.tel = ensure_telemetry(telemetry)
        self.store = ResultStore(
            self.state_dir / "store", max_entries=store_max, telemetry=self.tel
        )
        self.cache = SweepCache(self.cache_dir, telemetry=self.tel)
        self.drop_stream_after: int | None = None

        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._replayed = self._replay_journal()
        if self._replayed is None:
            self._journal = RunJournal.start(self.state_dir, "service")
        else:
            self._journal = RunJournal.resume(self.state_dir, "service")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []
        self._servers: list[asyncio.AbstractServer] = []
        self._stopping: asyncio.Event | None = None
        self._started_monotonic = time.monotonic()
        self.stats = {
            "jobs_submitted": 0,
            "jobs_executed": 0,
            "jobs_deduped": 0,
            "jobs_cached": 0,
            "jobs_failed": 0,
            "jobs_recovered": 0,
            "jobs_unrecoverable": 0,
            "watch_streams": 0,
        }

    # -- service journal ------------------------------------------------------------

    def _replay_journal(self) -> JournalState | None:
        """The last process's service journal, or None to start a fresh one.

        A journal with no head or a foreign format is not worth refusing
        to boot over: it is logged and replaced, as :meth:`_run_job`
        replaces a torn run journal.
        """
        path = journal_path(self.state_dir, "service")
        if not path.exists():
            return None
        try:
            return JournalState.load(self.state_dir, "service")
        except MeasurementError as e:
            _log.warning("service journal %s is unreadable, starting afresh: %s", path, e)
            path.unlink()
            return None

    def _journal_job(self, key: str, state: str) -> None:
        with self._lock:
            # a job thread that outlived stop() finds the journal closed: its
            # job stays ``running`` and the next start re-runs it
            if not self._journal.closed:
                self._journal.mark(key, state)

    def _recover_jobs(self) -> list[JobSpec]:
        """Jobs the last process accepted but never finished.

        The replayed service journal is last-writer-wins per job key: a
        job whose last task record is ``running`` is re-built from that
        record's payload, the job's wire form, for re-enqueueing.  The
        per-job *run* journal then makes the re-execution skip every point
        the dead server completed.
        """
        replayed = self._replayed
        if replayed is None:
            return []
        orphans = []
        for key, state in replayed.tasks.items():
            if state != "running":
                continue
            try:
                orphans.append(job_from_wire(replayed.task_payloads.get(key)))
            except ServiceError as e:
                # a torn, foreign or outdated record (say, a machine with a
                # retired kernel mode) is not worth a crash, but is counted
                # and named rather than dropped silently
                self.stats["jobs_unrecoverable"] += 1
                _log.warning("journaled job %s is unrecoverable: %s", key, e)
        return orphans

    # -- events ---------------------------------------------------------------------

    def _emit(self, job: Job, kind: str, **extra) -> None:
        """Append one progress event and fan it out to live watchers.

        Callable from any thread: the event list is appended under the
        lock (seq = len + 1, so sequences are dense and start at 1), and
        watcher queues are fed on the event loop.
        """
        with self._lock:
            event = {
                "seq": len(job.events) + 1,
                "type": kind,
                "key": job.key,
                "state": job.state,
            }
            event.update(extra)
            job.events.append(event)
            watchers = list(job.watchers)
        self.tel.count(f"service.events.{kind}")
        if self._loop is not None and watchers:

            def fan_out() -> None:
                for q in watchers:
                    q.put_nowait(event)

            self._loop.call_soon_threadsafe(fan_out)

    # -- submission -----------------------------------------------------------------

    def submit(self, spec: JobSpec, client: str = "") -> dict:
        """Accept, dedupe, or answer a job; returns the submit envelope.

        The dedup ladder: an in-flight (or finished) registry entry wins
        first, then the result store, then admission control (quota,
        queue bound) and a fresh enqueue.  Only the last path ever
        executes anything.
        """
        key = job_key(spec)
        with self._lock:
            self.stats["jobs_submitted"] += 1
            existing = self._jobs.get(key)
            if existing is not None and existing.state in ("queued", "running"):
                existing.clients.add(client)
                self.stats["jobs_deduped"] += 1
                return envelope(key, state=existing.state, cached=False, dedup=True)
            if existing is not None and existing.state == "done":
                # trust the registry only while the store still holds the
                # artifact — after LRU eviction the job must re-enqueue
                # (recomputing against the point cache, not re-measuring)
                if self.store.get(key) is not None:
                    existing.clients.add(client)
                    self.stats["jobs_cached"] += 1
                    return envelope(key, state="done", cached=True, dedup=False)
                existing = None
            if self.store.get(key) is not None:
                # a warm answer (this process never saw the submit): adopt
                # it into the registry so status/watch/fetch all work
                job = Job(key=key, spec=spec, client=client, state="done")
                self._jobs[key] = job
                self.stats["jobs_cached"] += 1
            elif self.quota and self._active_jobs(client) >= self.quota:
                raise ServiceError(
                    f"client {client or '(anonymous)'} has {self.quota} unfinished "
                    "jobs (quota); fetch or wait before submitting more",
                    status=429,
                )
            elif self._queue is not None and self._queue.qsize() >= self.queue_size:
                raise ServiceError(
                    f"job queue is full ({self.queue_size}); retry later",
                    status=409,
                )
            else:
                job = Job(key=key, spec=spec, client=client, state="queued")
                job.clients.add(client)
                self._jobs[key] = job
                self._journal.mark(key, "running", job_to_wire(spec))
        if self._jobs[key].state == "done" and existing is None:
            job = self._jobs[key]
            self._emit(job, "warm")
            self._emit(job, "finished", source="store")
            return envelope(key, state="done", cached=True, dedup=False)
        job = self._jobs[key]
        self._emit(job, "submitted", client=client)
        self._emit(job, "queued")
        if self._loop is not None and self._queue is not None:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, job)
        return envelope(key, state="queued", cached=False, dedup=False)

    def _active_jobs(self, client: str) -> int:
        return sum(
            1
            for j in self._jobs.values()
            if client in j.clients and j.state in ("queued", "running")
        )

    # -- execution ------------------------------------------------------------------

    def _execute(self, job: Job) -> None:
        """Run one job to completion (worker-thread side)."""
        with self._lock:
            if job.state == "done":  # answered while queued (dedup window)
                return
            job.state = "running"
            self.stats["jobs_executed"] += 1
        started = time.monotonic()
        self._emit(job, "started", engine=job.spec.engine)
        try:
            payload = self._run_job(job)
        except ReproError as e:
            with self._lock:
                job.state = "failed"
                job.error = str(e)
                self.stats["jobs_failed"] += 1
            self._journal_job(job.key, "quarantined")
            self._emit(job, "failed", error=str(e))
            return
        payload["elapsed_s"] = round(time.monotonic() - started, 6)
        self.store.put(job.key, payload)
        with self._lock:
            job.state = "done"
        self._journal_job(job.key, "done")
        self._emit(job, "finished", stats=payload.get("stats", {}))

    def _run_job(self, job: Job) -> dict:
        """Run one job through :func:`run_sweep`; returns the payload.

        A measured job runs supervised under a run journal keyed by its
        content key; the analytic tiers take neither.
        """
        # run_sweep turns on the spec's telemetry flag when self.tel is live
        spec = job.spec.sweep_spec()
        sizes = list(job.spec.sizes_mb)
        durability = {}
        if job.spec.engine == "measure":
            run_id = job.spec.run_id or job_run_id(job.key)
            resume = journal_path(self.journal_dir, run_id).exists()
            if resume:
                try:
                    state = JournalState.load(self.journal_dir, run_id)
                except MeasurementError:
                    # a headless/torn journal (killed before the head
                    # fsync'd) cannot be resumed; start over from the cache
                    journal_path(self.journal_dir, run_id).unlink(missing_ok=True)
                    resume = False
                else:
                    # a foreign journal under this run id (only reachable
                    # with a user-supplied run_id) is kept: the executor
                    # refuses to resume it and the job fails loudly, so the
                    # event follows the executor's own acceptance test
                    if state.spec_sha == sweep_spec_sha(spec, sizes):
                        done = len(state.done_indices())
                        self._emit(job, "resumed", run_id=run_id, done=done)
            durability = dict(
                policy=SupervisorPolicy(point_timeout_s=self.point_timeout),
                journal_dir=self.journal_dir,
                run_id=run_id,
                resume=resume,
            )
        results, stats = run_sweep(
            spec,
            sizes,
            engine=job.spec.engine,
            workers=self.sweep_workers,
            cache_dir=self.cache_dir,
            telemetry=self.tel,
            **durability,
        )
        stats_out = {
            "measured": stats.measured,
            "cache_hits": stats.cache_hits,
            "journal_hits": stats.journal_hits,
            "quarantined": stats.quarantined,
            "retries": stats.retries,
            "run_id": stats.run_id or "",
        }
        curve = assemble_curve(
            spec.benchmark, results, job.spec.machine.core.clock_hz, telemetry=self.tel
        )
        payload = {
            "protocol": PROTOCOL_VERSION,
            "key": job.key,
            "benchmark": curve.benchmark,
            "engine": job.spec.engine,
            "sweep_sha": sweep_spec_sha(spec, sizes),
            "rows": curve.to_rows(),
            "stats": stats_out,
        }
        quality = getattr(curve, "quality", None)
        if quality:
            payload["quality"] = {str(i): q.label for i, q in sorted(quality.items())}
        return payload

    # -- queries --------------------------------------------------------------------

    def status(self, key: str) -> dict:
        with self._lock:
            job = self._jobs.get(key)
            if job is None:
                if self.store.get(key) is not None:
                    return envelope(key, state="done", events=0, cached=True)
                raise ServiceError(f"unknown job {key!r}", status=404)
            return envelope(
                key,
                state=job.state,
                events=len(job.events),
                error=job.error,
                cached=False,
            )

    def fetch(self, key: str) -> dict:
        payload = self.store.get(key)
        if payload is not None:
            return envelope(key, result=payload)
        with self._lock:
            job = self._jobs.get(key)
        if job is None:
            raise ServiceError(f"unknown job {key!r}", status=404)
        if job.state == "failed":
            raise ServiceError(f"job failed: {job.error}", status=409)
        if job.state == "done":
            raise ServiceError("result was evicted; resubmit to recompute", status=409)
        raise ServiceError(f"job is {job.state}; watch or retry later", status=409)

    def server_stats(self) -> dict:
        with self._lock:
            counters = dict(self.stats)
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return envelope(
            stats=counters,
            jobs=states,
            queue_depth=self._queue.qsize() if self._queue else 0,
            store={
                "entries": len(self.store),
                "max_entries": self.store.max_entries,
                "evictions": self.store.evictions,
            },
            uptime_s=round(time.monotonic() - self._started_monotonic, 6),
        )

    # -- asyncio plumbing -----------------------------------------------------------

    async def start(
        self,
        *,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int = 0,
    ) -> None:
        """Warm-start state, launch workers, and bind the socket(s)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stopping = asyncio.Event()
        warmed = self.store.warm_start()
        if warmed:
            self.tel.count("service.warm_started", warmed)
        for spec in self._recover_jobs():
            key = job_key(spec)
            if self.store.get(key) is not None:
                continue
            with self._lock:
                job = Job(key=key, spec=spec, state="queued")
                self._jobs[key] = job
                self.stats["jobs_recovered"] += 1
            self._emit(job, "queued", recovered=True)
            self._queue.put_nowait(job)
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"job-worker-{i}")
            for i in range(self.job_workers)
        ]
        if socket_path is not None:
            Path(socket_path).unlink(missing_ok=True)
            self._servers.append(
                await asyncio.start_unix_server(self._handle, path=str(socket_path))
            )
        if host is not None:
            self._servers.append(
                await asyncio.start_server(self._handle, host=host, port=port)
            )
        if not self._servers:
            raise ReproError("serve needs a unix socket path or a host/port")

    @property
    def tcp_port(self) -> int | None:
        """The bound TCP port, when serving TCP (for port-0 tests)."""
        for server in self._servers:
            for sock in server.sockets:
                addr = sock.getsockname()
                if isinstance(addr, tuple):
                    return addr[1]
        return None

    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                await asyncio.to_thread(self._execute, job)
            finally:
                self._queue.task_done()

    async def stop(self) -> None:
        """Stop accepting, cancel workers, release the sockets and the journal."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        with self._lock:
            self._journal.close()
        if self._stopping is not None:
            self._stopping.set()

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or ``/v1/shutdown``) is called."""
        assert self._stopping is not None
        await self._stopping.wait()

    # -- HTTP layer -----------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._dispatch(method, path, query, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY:
            return None
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return method, split.path, parse_qs(split.query), body

    async def _dispatch(self, method, path, query, body, writer) -> None:
        try:
            if method == "POST" and path == "/v1/submit":
                data = self._json_body(body)
                spec = job_from_wire(data.get("job"))
                reply = await asyncio.to_thread(
                    self.submit, spec, str(data.get("client", ""))
                )
                await self._respond(writer, 200, reply)
            elif method == "GET" and path.startswith("/v1/status/"):
                await self._respond(writer, 200, self.status(path.rsplit("/", 1)[1]))
            elif method == "GET" and path == "/v1/status":
                await self._respond(writer, 200, self.server_stats())
            elif method == "GET" and path.startswith("/v1/fetch/"):
                await self._respond(writer, 200, self.fetch(path.rsplit("/", 1)[1]))
            elif method == "GET" and path.startswith("/v1/watch/"):
                since = int(query.get("since", ["0"])[0])
                await self._watch(writer, path.rsplit("/", 1)[1], since)
            elif method == "GET" and path == "/v1/stats":
                await self._respond(writer, 200, self.server_stats())
            elif method == "GET" and path == "/v1/healthz":
                await self._respond(writer, 200, envelope(status="healthy"))
            elif method == "POST" and path == "/v1/shutdown":
                await self._respond(writer, 200, envelope(stopping=True))
                asyncio.get_running_loop().call_soon(asyncio.ensure_future, self.stop())
            else:
                await self._respond(
                    writer, 404, error_envelope(f"no route {method} {path}", status=404)
                )
        except ServiceError as e:
            await self._respond(writer, e.status, error_envelope(str(e), status=e.status))

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            data = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ServiceError(f"request body is not JSON: {e}") from None
        if not isinstance(data, dict):
            raise ServiceError("request body must be a JSON object")
        return data

    async def _respond(self, writer, status: int, payload: dict) -> None:
        blob = json.dumps(payload, sort_keys=True).encode()
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            409: "Conflict",
            429: "Too Many Requests",
        }
        reason = reasons.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + blob)
        await writer.drain()

    async def _watch(self, writer, key: str, since: int) -> None:
        """Stream a job's events as NDJSON until a terminal event.

        A watcher queue registers *before* the backlog snapshot, so no
        event can fall between replay and live delivery; duplicates from
        that overlap are dropped by sequence number.  ``since`` skips
        already-seen events on reconnect (exactly-once across drops).
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is None:
                payload = self.store.get(key)
                if payload is None:
                    raise ServiceError(f"unknown job {key!r}", status=404)
                backlog = [
                    {"seq": 1, "type": "finished", "key": key, "state": "done",
                     "source": "store"}
                ]
                live = None
            else:
                live = asyncio.Queue()
                job.watchers.add(live)
                backlog = list(job.events)
            self.stats["watch_streams"] += 1
        drop_after = self.drop_stream_after
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        sent = 0
        last_seq = since
        try:
            events = backlog
            while True:
                for event in events:
                    if event["seq"] <= last_seq:
                        continue
                    if drop_after is not None and sent >= drop_after:
                        return  # chaos: cut the stream mid-flight
                    writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
                    await writer.drain()
                    sent += 1
                    last_seq = event["seq"]
                    if event["type"] in TERMINAL_EVENTS:
                        return
                if live is None:
                    return
                events = [await live.get()]
        finally:
            if live is not None:
                with self._lock:
                    job.watchers.discard(live)


async def run_server(
    state_dir: str | Path,
    *,
    socket_path: str | Path | None = None,
    host: str | None = None,
    port: int = 0,
    **kwargs,
) -> None:
    """Build a :class:`SweepServer`, bind it, and serve until shutdown."""
    server = SweepServer(state_dir, **kwargs)
    await server.start(socket_path=socket_path, host=host, port=port)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
