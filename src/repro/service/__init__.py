"""Curve-as-a-service: the sweep engines behind a long-running server.

The batch CLI made one curve cheap (cache hits in microseconds,
surrogate points in milliseconds); this package makes curves *servable*:
a stdlib-only asyncio HTTP server (``repro serve``) with a bounded job
queue, content-key dedup of identical in-flight work, a multi-tenant
LRU result store warm-started across restarts, and journal-backed crash
resume — plus the blocking :class:`ServiceClient` and the ``repro
submit|status|fetch|watch`` CLI that consume it.

* :mod:`repro.service.protocol` — JobSpec, content keys, envelopes, the
  event-stream schema (the whole wire contract in one module),
* :mod:`repro.service.server` — :class:`SweepServer`: queue, dedup,
  workers, journals, the HTTP layer,
* :mod:`repro.service.store` — :class:`ResultStore`: bounded LRU over
  atomic checksummed artifacts,
* :mod:`repro.service.client` — :class:`ServiceClient`: submit, fetch,
  and reconnect-safe event streaming,
* :mod:`repro.service.testing` — :class:`ServerThread`: in-process
  server for sync tests and the ``service`` golden.
"""

from .client import ServiceClient
from .protocol import (
    EVENT_TYPES,
    JOB_STATES,
    PROTOCOL_VERSION,
    TERMINAL_EVENTS,
    JobSpec,
    ServiceError,
    envelope,
    error_envelope,
    job_from_wire,
    job_key,
    job_to_wire,
    normalize_envelope,
)
from .server import SweepServer, job_run_id, run_server
from .store import ResultStore
from .testing import ServerThread

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_STATES",
    "EVENT_TYPES",
    "TERMINAL_EVENTS",
    "JobSpec",
    "ServiceError",
    "job_key",
    "job_to_wire",
    "job_from_wire",
    "job_run_id",
    "envelope",
    "error_envelope",
    "normalize_envelope",
    "ResultStore",
    "SweepServer",
    "run_server",
    "ServiceClient",
    "ServerThread",
]
