"""Wire protocol for the curve service.

Everything the server and its clients exchange is defined here, in one
place, as plain-JSON data: the job description (:class:`JobSpec`), its
content key (:func:`job_key`), the HTTP endpoints (:data:`ENDPOINTS`),
the response envelope (:func:`envelope`), and the progress-event stream
schema (:data:`EVENT_TYPES`).  Both sides import this module and nothing
else from each other, so a protocol change is a one-file diff — and the
``service`` golden pins the envelope and event schema against drift.

The key property the protocol must preserve is *content addressing*: a
:class:`JobSpec` maps onto the same :class:`~repro.core.parallel.SweepSpec`
that ``repro sweep`` builds, so its key is derived from
:func:`~repro.core.parallel.sweep_spec_sha` — the exact identity the run
journal pins and the sweep cache keys by.  Submitting the same curve
twice, from two clients, or once via the batch CLI and once via the
service, is one execution.  The sweep rules live in ``SweepSpec`` and
:func:`~repro.core.parallel.sweep_points`: a job is checked by building
them, and the decoder prefixes every refusal with ``job:``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from ..config import MachineConfig, machine_from_dict, machine_to_dict, nehalem_config
from ..core.harness import DEFAULT_INTERVAL_INSTRUCTIONS
from ..core.journal import check_run_id
from ..core.monitor import DEFAULT_FETCH_RATIO_THRESHOLD
from ..core.parallel import SweepSpec, resolve_engine, sweep_points, sweep_spec_sha
from ..errors import ConfigError, ReproError
from ..store import checksum
from ..workloads import TargetSpec

#: bumped on any incompatible wire change; echoed in every envelope
PROTOCOL_VERSION = 1

#: job lifecycle states as reported by /v1/status and the event stream
JOB_STATES = ("queued", "running", "done", "failed")

#: every progress-event type the server may emit on a watch stream.
#: ``submitted`` fires on first registration, ``dedup`` when a submit
#: coalesced onto in-flight work, ``warm`` when it was answered from the
#: result store without executing, ``queued``/``started``/``resumed``
#: mark scheduling, and ``finished``/``failed`` are terminal.
EVENT_TYPES = (
    "submitted",
    "dedup",
    "warm",
    "queued",
    "started",
    "resumed",
    "finished",
    "failed",
)

#: terminal event types: a watch stream closes after emitting one
TERMINAL_EVENTS = ("finished", "failed")

#: the HTTP surface (method, path-prefix); paths are /v1/<verb>[/<key>]
ENDPOINTS = (
    ("POST", "/v1/submit"),
    ("GET", "/v1/status"),
    ("GET", "/v1/fetch"),
    ("GET", "/v1/watch"),
    ("GET", "/v1/stats"),
    ("GET", "/v1/healthz"),
    ("POST", "/v1/shutdown"),
)


class ServiceError(ReproError):
    """A protocol-level failure: bad request, unknown key, quota, queue."""

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class JobSpec:
    """One submittable curve: a workload, a machine, and a size grid.

    The service's unit of work: a job *is* one fixed-size sweep, whatever
    the engine tier, and checks itself by building its
    :meth:`sweep_spec` and sweep points.  ``run_id`` is the only field
    excluded from the content key: it overrides the journal id (for
    adopting a journal written by ``repro sweep``) and changes where
    progress is journaled, never what is computed.
    """

    workload: TargetSpec
    sizes_mb: tuple[float, ...]
    benchmark: str = ""
    machine: MachineConfig = field(default_factory=nehalem_config)
    pirate_threads: int = 1
    interval_instructions: float = DEFAULT_INTERVAL_INSTRUCTIONS
    n_intervals: int = 2
    warmup_instructions: float | None = None
    engine: str = "measure"
    seed: int = 0
    run_id: str = ""

    def __post_init__(self) -> None:
        resolve_engine(self.engine)
        if self.run_id != "":
            check_run_id(self.run_id, ConfigError)
        sweep_points(self.sweep_spec(), self.sizes_mb)

    @classmethod
    def from_sweep(
        cls, spec: SweepSpec, sizes_mb, *, engine: str = "measure", run_id: str = ""
    ) -> JobSpec:
        """The job that runs ``spec`` over ``sizes_mb``: the inverse of
        :meth:`sweep_spec`.  The wire carries no retry policy or threshold,
        so a spec with either is refused rather than silently changed."""
        if spec.retry is not None or spec.threshold != DEFAULT_FETCH_RATIO_THRESHOLD:
            raise ConfigError("a job carries no retry policy or fetch-ratio threshold")
        kw = {job: getattr(spec, sweep) for job, sweep in _SWEEP_FIELDS.items()}
        return cls(sizes_mb=tuple(sizes_mb), engine=engine, run_id=run_id, **kw)

    def sweep_spec(self) -> SweepSpec:
        """The SweepSpec this job runs.

        It is the one the batch CLI builds for the same sweep, so service
        results are bit-identical to ``repro sweep`` and
        :func:`~repro.core.parallel.sweep_spec_sha` agrees: the server can
        resume a journal written by ``repro sweep`` and vice versa.
        """
        kw = {sweep: getattr(self, job) for job, sweep in _SWEEP_FIELDS.items()}
        kw["benchmark"] = self.benchmark or self.workload.name or self.workload.kind
        return SweepSpec(**kw)


#: JobSpec field -> SweepSpec field, for every field the two share
_SWEEP_FIELDS = {
    "workload": "target",
    "benchmark": "benchmark",
    "machine": "config",
    "pirate_threads": "num_pirate_threads",
    "interval_instructions": "interval_instructions",
    "n_intervals": "n_intervals",
    "warmup_instructions": "warmup_instructions",
    "seed": "seed",
}


def job_key(job: JobSpec) -> str:
    """Content key of a job: engine tier + the sweep identity it runs.

    Built on :func:`~repro.core.parallel.sweep_spec_sha` — the same hash
    the run journal pins — extended with the engine tier, because the
    measured and analytic answers for one sweep are different artifacts.
    ``run_id`` is excluded by construction.
    """
    token = {
        "engine": job.engine,
        "sweep_sha": sweep_spec_sha(job.sweep_spec(), list(job.sizes_mb)),
    }
    return checksum(token)


def job_to_wire(job: JobSpec) -> dict:
    """A JobSpec as pure-JSON data (nested dataclasses flattened)."""
    wire = asdict(job)
    wire["workload"] = asdict(job.workload)
    wire["machine"] = machine_to_dict(job.machine)
    wire["sizes_mb"] = list(job.sizes_mb)
    return wire


def job_from_wire(data: dict) -> JobSpec:
    """Rebuild and validate a JobSpec from :func:`job_to_wire` output.

    Every malformed shape — wrong types, unknown fields, semantic junk —
    surfaces as one ``job:``-prefixed :class:`ServiceError` (HTTP 400): the
    server never turns a garbled request into a trace or a doomed job.
    """
    if not isinstance(data, dict):
        raise ServiceError(f"job: must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(JobSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ServiceError(f"job: unknown field(s) {', '.join(map(repr, unknown))}")
    if "workload" not in data or "sizes_mb" not in data:
        raise ServiceError("job: needs 'workload' and 'sizes_mb'")
    kwargs = dict(data)
    try:
        workload = kwargs["workload"]
        if not isinstance(workload, dict):
            raise ConfigError("workload must be a mapping")
        kwargs["workload"] = TargetSpec(**workload)
        if "machine" in kwargs:
            kwargs["machine"] = machine_from_dict(kwargs["machine"])
        if not isinstance(kwargs["sizes_mb"], (list, tuple)):
            raise ConfigError("sizes_mb must be a list")
        kwargs["sizes_mb"] = tuple(kwargs["sizes_mb"])
        return JobSpec(**kwargs)
    except (ConfigError, TypeError, ValueError, OverflowError) as e:
        raise ServiceError(f"job: {e}") from None


def envelope(key: str | None = None, **payload) -> dict:
    """The success envelope every endpoint answers with.

    ``protocol`` and ``ok`` always lead; ``key`` carries the content key
    whenever the response concerns a job, so a client can re-submit (or
    re-fetch) anything it ever saw an answer for.
    """
    out = {"protocol": PROTOCOL_VERSION, "ok": True}
    if key is not None:
        out["key"] = key
    out.update(payload)
    return out


def error_envelope(message: str, *, status: int = 400) -> dict:
    """The failure envelope: same leading fields, ``ok`` false."""
    return {
        "protocol": PROTOCOL_VERSION,
        "ok": False,
        "error": str(message),
        "status": int(status),
    }


#: response fields that carry wall-clock or host-specific values; the
#: golden scenario zeroes these so envelopes stay deterministic
VOLATILE_FIELDS = ("elapsed_s", "uptime_s", "wall_s")


def normalize_envelope(data):
    """Recursively zero volatile fields (for goldens and tests)."""
    if isinstance(data, dict):
        return {
            k: (0.0 if k in VOLATILE_FIELDS else normalize_envelope(v))
            for k, v in data.items()
        }
    if isinstance(data, list):
        return [normalize_envelope(v) for v in data]
    return data
