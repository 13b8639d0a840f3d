"""Multi-tenant result store: finished curves, LRU-evicted, warm-started.

One JSON artifact per job key, layered *above* the point-level
:class:`~repro.core.parallel.SweepCache`: the store holds assembled
responses (rows + quality + stats) while the sweep cache holds the raw
points they were built from.  That split makes eviction cheap to be
aggressive about — evicting a store entry only discards the assembly,
and recomputing it against a warm sweep cache is all cache hits.

On disk it is a :class:`repro.store.Store` (``store_format`` envelopes):
atomic writes, and a torn or tampered artifact is quarantined on load and
treated as a miss, never served.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from ..observability import ensure_telemetry
from ..store import Format, Store

#: bumped on any incompatible artifact change; foreign entries are misses
STORE_FORMAT_VERSION = 1

#: the result store's envelope: ``store_format`` 1 over a response payload
STORE_FORMAT = Format("store_format", STORE_FORMAT_VERSION)

_KEY_LEN = 64  # sha256 hex


class ResultStore:
    """A bounded, disk-backed, thread-safe map of job key -> response.

    ``max_entries`` caps the resident set; inserting beyond it evicts the
    least recently *used* entry (loads refresh recency, like the OS page
    cache the paper measures around).  ``warm_start`` reloads survivors
    from disk after a restart, newest first, so a rebooted server answers
    what it answered before without executing anything.
    """

    def __init__(self, root: str | Path, *, max_entries: int = 1024, telemetry=None):
        if max_entries < 1:
            raise ValueError("result store needs max_entries >= 1")
        self.disk = Store(root, STORE_FORMAT)
        self.max_entries = int(max_entries)
        self._tel = ensure_telemetry(telemetry)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> dict | None:
        """The stored response for ``key``, refreshing its recency."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                return None
            self._entries.move_to_end(key)
            self._tel.count("service.store.hits")
            return payload

    def put(self, key: str, payload: dict) -> None:
        """Store (and persist) a finished response, evicting beyond cap."""
        with self._lock:
            self.disk.save(key, payload)
            self._entries[key] = payload
            self._entries.move_to_end(key)
            self._tel.count("service.store.puts")
            while len(self._entries) > self.max_entries:
                victim, _ = self._entries.popitem(last=False)
                self.disk.path(victim).unlink(missing_ok=True)
                self.evictions += 1
                self._tel.count("service.store.evictions")

    def warm_start(self) -> int:
        """Preload up to ``max_entries`` artifacts from disk, newest first.

        Returns the number of entries resurrected.  Corrupt artifacts are
        quarantined and stale-format ones deleted (a warm start must never
        serve a torn write); artifacts beyond the cap are deleted so disk
        usage tracks the configured bound across restarts.
        """
        candidates = sorted(
            (p for p in self.disk.root.glob("*.json") if len(p.stem) == _KEY_LEN),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        loaded = 0
        with self._lock:
            for path in candidates:
                if loaded >= self.max_entries:
                    path.unlink(missing_ok=True)
                    continue
                payload = self.disk.load(path.stem)
                if payload is None:
                    path.unlink(missing_ok=True)  # stale format (corrupt: quarantined)
                    continue
                # newest-first scan, but the OrderedDict wants oldest
                # first so move_to_end keeps mtime order: insert at front
                self._entries[path.stem] = payload
                self._entries.move_to_end(path.stem, last=False)
                loaded += 1
        self._tel.count("service.store.warm_loaded", loaded)
        return loaded
