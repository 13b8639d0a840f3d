"""One checksummed on-disk store for every finished result the package keeps.

Sweep points (:class:`~repro.core.parallel.SweepCache`), the service's
assembled curves (:class:`~repro.service.store.ResultStore`) and a grid's
finished cells (``<out>/cells/<key16>.json``) are views over :class:`Store`:
one JSON file per content key, each holding one envelope
``{<format key>: <version>, "sha256": sha256(canonical payload), "payload": {...}}``.

Writes are atomic (``mkstemp`` + ``os.replace``), so a killed writer never
leaves a torn entry.  Reads verify the envelope: a truncated, bit-rotted,
hand-edited or undecodable entry is never served — it reads as a miss and
is quarantined to ``<key>.json.corrupt`` (the evidence survives, the key
can be re-stored).  An envelope of no current :class:`Format` is *stale*:
a miss left in place until :meth:`Store.gc`.  Each format names its own
decoder, so one scan classifies the entries of any store kind, which is
what ``repro cache verify|repair|gc`` runs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

_log = logging.getLogger("repro.store")


def checksum(obj: object) -> str:
    """sha256 of ``obj``'s canonical JSON: every content key, and the checksum
    an envelope stores beside (and verifies against) its payload."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Format:
    """One envelope kind: its format key, current version and decoder.

    ``decode`` turns a checksum-verified payload into the view's value and
    raises ``KeyError``/``TypeError``/``ValueError`` when the payload is
    structurally wrong — such an entry is corrupt, checksum or not.
    """

    key: str
    version: int
    decode: Callable[[dict], object] = lambda payload: payload


def seal(fmt: Format, payload: dict) -> str:
    """The envelope text :meth:`Store.save` writes for ``payload``."""
    return json.dumps({fmt.key: fmt.version, "sha256": checksum(payload), "payload": payload})


def unseal(text: str, formats: Sequence[Format]) -> tuple[object | None, str | None]:
    """(value, why-it-is-corrupt): at most one side is non-None.

    ``(None, None)`` means a well-formed envelope of none of ``formats``
    (another store kind, or another version of this one) — stale, not
    corrupt.
    """
    try:
        envelope = json.loads(text)
    except ValueError:
        return None, "unparseable JSON"
    if not isinstance(envelope, dict):
        return None, "not a JSON object"
    fmt = next((f for f in formats if envelope.get(f.key) == f.version), None)
    if fmt is None:
        return None, None
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        return None, "missing payload"
    if envelope.get("sha256") != checksum(payload):
        return None, "checksum mismatch"
    try:
        return fmt.decode(payload), None
    except (KeyError, TypeError, ValueError):
        return None, "malformed payload"


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text``: readers see the old file or the new one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class CacheAudit:
    """What a :meth:`Store.verify` scan found, entry file by entry file."""

    ok: list[str] = field(default_factory=list)
    corrupt: list[str] = field(default_factory=list)
    stale_version: list[str] = field(default_factory=list)
    #: previously quarantined ``*.json.corrupt`` files awaiting gc
    quarantined: list[str] = field(default_factory=list)
    #: orphaned atomic-write temp files (a writer died pre-rename)
    stale_tmp: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.ok) + len(self.corrupt) + len(self.stale_version)

    @property
    def clean(self) -> bool:
        """True when every live entry verified (leftover debris is not dirt)."""
        return not self.corrupt

    def format(self) -> str:
        """One-line-per-category report for ``repro cache verify``."""
        lines = [
            f"{self.total} entries: {len(self.ok)} ok, "
            f"{len(self.corrupt)} corrupt, {len(self.stale_version)} stale-version"
        ]
        lines += [f"  corrupt: {name}" for name in self.corrupt]
        lines += [f"  stale-version: {name}" for name in self.stale_version]
        if self.quarantined:
            lines.append(f"{len(self.quarantined)} quarantined file(s) awaiting gc")
        if self.stale_tmp:
            lines.append(f"{len(self.stale_tmp)} orphaned temp file(s) awaiting gc")
        return "\n".join(lines)


class Store:
    """A directory of checksummed envelopes, one ``<key>.json`` per key.

    :meth:`save` writes ``formats[0]``; :meth:`load` and the audit accept
    every listed format.  ``on_corrupt(path, reason)`` hears each
    quarantine (the sweep cache counts them on its telemetry).
    """

    def __init__(
        self,
        root: str | Path,
        formats: Format | Sequence[Format],
        *,
        on_corrupt: Callable[[Path, str], None] | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.formats = (formats,) if isinstance(formats, Format) else tuple(formats)
        self.on_corrupt = on_corrupt

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str, decode=None):
        """The value stored under ``key``, or None on a miss.

        Corruption is a quarantined miss, never an exception.  ``decode``
        replaces :func:`unseal` (same contract) for views that wrap it.
        """
        path = self.path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as e:
            self.quarantine(path, f"unreadable ({e.__class__.__name__})")
            return None
        value, reason = decode(text) if decode else unseal(text, self.formats)
        if reason is not None:
            self.quarantine(path, reason)
        return value

    def save(self, key: str, payload: dict) -> None:
        """Persist ``payload`` under ``key`` atomically, with its checksum."""
        write_atomic(self.path(key), seal(self.formats[0], payload))

    def quarantine(self, path: Path, reason: str) -> None:
        """Rename a corrupt entry to ``*.json.corrupt`` (log it, report it)."""
        _log.warning("store entry %s is corrupt (%s); quarantined", path, reason)
        if self.on_corrupt is not None:
            self.on_corrupt(path, reason)
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass  # losing the quarantine rename must not sink the caller

    # -- maintenance (the ``repro cache`` CLI) -------------------------------------

    def verify(self) -> CacheAudit:
        """Scan every entry, re-verifying checksums; mutates nothing."""
        audit = CacheAudit()
        for path in sorted(self.root.glob("*.json")):
            try:
                value, reason = unseal(path.read_text(), self.formats)
            except OSError as e:
                value, reason = None, f"unreadable ({e.__class__.__name__})"
            if reason is not None:
                audit.corrupt.append(path.name)
            elif value is None:
                audit.stale_version.append(path.name)
            else:
                audit.ok.append(path.name)
        audit.quarantined = sorted(p.name for p in self.root.glob("*.corrupt"))
        audit.stale_tmp = sorted(p.name for p in self.root.glob("*.tmp"))
        return audit

    def repair(self) -> CacheAudit:
        """Quarantine every corrupt entry so future loads are clean misses."""
        audit = self.verify()
        for name in audit.corrupt:
            self.quarantine(self.root / name, "repair scan")
        return audit

    def gc(self) -> int:
        """Delete quarantined/orphaned debris and stale-version entries.

        Returns how many files were removed.  Never touches verified
        current-format entries.
        """
        audit = self.verify()
        removed = 0
        for name in audit.quarantined + audit.stale_tmp + audit.stale_version:
            try:
                (self.root / name).unlink()
                removed += 1
            except OSError:
                pass
        return removed
