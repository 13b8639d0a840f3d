"""Wire protocol for the curve service.

Everything the server and its clients exchange is defined here, in one
place, as plain-JSON data: the job description (:class:`JobSpec`), its
content key (:func:`job_key`), the HTTP endpoints (:data:`ENDPOINTS`),
the response envelope (:func:`envelope`), and the progress-event stream
schema (:data:`EVENT_TYPES`).  Both sides import this module and nothing
else from each other, so a protocol change is a one-file diff — and the
``service`` golden pins the envelope and event schema against drift.

The key property the protocol must preserve is *content addressing*: a
:class:`JobSpec` maps deterministically onto the same
:class:`~repro.core.parallel.SweepSpec` that ``repro sweep`` builds, so
its key is derived from :func:`~repro.core.parallel.sweep_spec_sha` —
the exact identity the PR 6 journal pins and the sweep cache keys by.
Submitting the same curve twice, from two clients, or once via the
batch CLI and once via the service, is one execution.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from ..config import MachineConfig, machine_from_dict, machine_to_dict, nehalem_config
from ..core.harness import DEFAULT_INTERVAL_INSTRUCTIONS
from ..core.journal import check_run_id
from ..core.monitor import DEFAULT_FETCH_RATIO_THRESHOLD
from ..core.parallel import SweepSpec, sweep_spec_sha
from ..errors import ConfigError, ReproError
from ..store import checksum
from ..workloads import TargetSpec

#: bumped on any incompatible wire change; echoed in every envelope
PROTOCOL_VERSION = 1

#: engine tiers a job may request (mirrors ``ENGINE_TIERS`` by value so a
#: wire validation failure doesn't need the caches package imported)
JOB_ENGINES = ("measure", "surrogate", "auto")

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

    This is the service's unit of work and deliberately mirrors the
    arguments of :func:`~repro.core.harness.measure_curve_fixed` — a job
    *is* one fixed-size sweep, whatever the engine tier.  ``run_id`` is
    the only field excluded from the content key: it overrides the
    journal id (for adopting a journal written by ``repro sweep``) and
    changes where progress is journaled, never what is computed.
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
        if not isinstance(self.workload, TargetSpec):
            raise ConfigError("job workload must be a TargetSpec")
        if not self.sizes_mb:
            raise ConfigError("job needs at least one sweep size")
        if any(not s > 0 for s in self.sizes_mb):
            raise ConfigError(f"sweep sizes must be positive, got {self.sizes_mb}")
        if self.engine not in JOB_ENGINES:
            raise ConfigError(
                f"unknown job engine {self.engine!r}; known: {JOB_ENGINES}"
            )
        if self.pirate_threads < 1:
            raise ConfigError("pirate_threads must be >= 1")
        if self.n_intervals < 1:
            raise ConfigError("n_intervals must be >= 1")
        if not self.interval_instructions > 0:
            raise ConfigError("interval_instructions must be positive")
        if self.run_id != "":
            check_run_id(self.run_id, ConfigError)

    def sweep_spec(self, *, telemetry_enabled: bool = False) -> SweepSpec:
        """The exact SweepSpec ``measure_curve_fixed`` would build.

        Field-for-field parity with the harness matters twice over: it
        makes service results bit-identical to the batch CLI, and it
        makes :func:`~repro.core.parallel.sweep_spec_sha` agree, so the
        server can resume a journal written by ``repro sweep`` and vice
        versa.  (``telemetry`` is excluded from the spec token, so the
        flag cannot fork keys.)
        """
        return SweepSpec(
            target=self.workload,
            benchmark=self.benchmark or self.workload.name or self.workload.kind,
            config=self.machine,
            num_pirate_threads=self.pirate_threads,
            interval_instructions=self.interval_instructions,
            n_intervals=self.n_intervals,
            warmup_instructions=self.warmup_instructions,
            threshold=DEFAULT_FETCH_RATIO_THRESHOLD,
            quantum=None,
            seed=self.seed,
            retry=None,
            telemetry=telemetry_enabled,
        )


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
    surfaces as a single :class:`ServiceError` with HTTP status 400, so
    the server never turns a garbled request into a stack trace.
    """
    if not isinstance(data, dict):
        raise ServiceError(f"job must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(JobSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ServiceError(f"job: unknown field(s) {', '.join(map(repr, unknown))}")
    if "workload" not in data or "sizes_mb" not in data:
        raise ServiceError("job needs 'workload' and 'sizes_mb'")
    kwargs = dict(data)
    try:
        workload = kwargs["workload"]
        if not isinstance(workload, dict):
            raise ConfigError("job workload must be a mapping")
        kwargs["workload"] = TargetSpec(**workload)
        if "machine" in kwargs:
            kwargs["machine"] = machine_from_dict(kwargs["machine"])
        sizes = kwargs["sizes_mb"]
        if not isinstance(sizes, (list, tuple)):
            raise ConfigError("job sizes_mb must be a list")
        kwargs["sizes_mb"] = tuple(float(s) for s in sizes)
        return JobSpec(**kwargs)
    except ConfigError as e:
        raise ServiceError(f"job: {e}") from None
    except (TypeError, ValueError) as e:
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
