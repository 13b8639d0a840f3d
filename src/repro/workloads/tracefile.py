"""Compact binary address-trace files: recorder, mmap replayer, workload.

Recorded address traces are the third workload family the zoo adds: instead
of a synthetic generator, the request stream is an exact replay of a
previously captured line-address sequence.  The on-disk format is built for
*replay*, not archival: a fixed little-endian header, a small JSON metadata
blob, then the raw ``int64`` line array (plus an optional bit-packed write
mask) — so a replayer can ``mmap`` the payload and stream it with zero
parsing and zero copies beyond the chunks it emits.

Layout (all little-endian)::

    offset 0   magic      4s   b"RPAT"
           4   version    u32  TRACE_FORMAT_VERSION
           8   flags      u32  bit0: write mask present
          12   meta_len   u32  length of the JSON metadata blob
          16   count      u64  number of accesses
          24   sha256     32s  checksum over meta + lines + writes bytes
          56   meta       meta_len bytes of JSON (timing scalars, name, ...)
          56+meta_len     lines  int64[count]
          ...              writes uint8[ceil(count / 8)]  (bit-packed, optional)

Every reader verifies the envelope end to end before serving a single
access: bad magic, a foreign version, a size that does not match ``count``,
or a checksum mismatch each raise a one-line
:class:`~repro.errors.TraceError` — a damaged file can never silently
replay a partial or corrupted stream.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..errors import ConfigError, TraceError
from .base import Workload

#: Bump when the on-disk layout changes; readers reject other versions.
TRACE_FORMAT_VERSION = 1

_MAGIC = b"RPAT"
_HEADER = struct.Struct("<4sIIIQ32s")
_FLAG_WRITES = 1


def _payload_sha(meta: bytes, lines: np.ndarray, writes: np.ndarray | None) -> bytes:
    h = hashlib.sha256()
    h.update(meta)
    h.update(memoryview(np.ascontiguousarray(lines)))
    if writes is not None:
        h.update(memoryview(np.ascontiguousarray(writes)))
    return h.digest()


def write_trace(
    path: str | Path,
    lines: np.ndarray,
    *,
    writes: np.ndarray | None = None,
    meta: dict | None = None,
) -> None:
    """Serialize an access stream to ``path`` in the RPAT format.

    ``lines`` must be a non-empty 1-D integer array; ``writes`` (optional)
    a boolean mask of the same shape.  ``meta`` is stored verbatim as JSON
    — the replayer looks up the workload timing scalars there.
    """
    lines = np.asarray(lines, dtype="<i8")
    if lines.ndim != 1 or len(lines) == 0:
        raise TraceError(f"{path}: cannot write an empty or non-1D trace")
    packed = None
    flags = 0
    if writes is not None:
        writes = np.asarray(writes, dtype=bool)
        if writes.shape != lines.shape:
            raise TraceError(f"{path}: write mask shape mismatch")
        packed = np.packbits(writes)
        flags |= _FLAG_WRITES
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode()
    sha = _payload_sha(meta_blob, lines, packed)
    header = _HEADER.pack(
        _MAGIC, TRACE_FORMAT_VERSION, flags, len(meta_blob), len(lines), sha
    )
    tmp = Path(path).with_suffix(Path(path).suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(meta_blob)
        fh.write(lines.tobytes())
        if packed is not None:
            fh.write(packed.tobytes())
    tmp.replace(path)


class TraceFile:
    """A verified, memory-mapped RPAT trace.

    ``lines`` is a read-only ``np.memmap`` over the payload; ``writes`` is
    the unpacked boolean mask (or None).  Construction verifies the whole
    envelope — magic, version, structural sizes, payload checksum — and
    raises a one-line :class:`~repro.errors.TraceError` on any damage.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            size = self.path.stat().st_size
            with open(self.path, "rb") as fh:
                head = fh.read(_HEADER.size)
        except OSError as e:
            raise TraceError(f"{path}: cannot read trace ({e.__class__.__name__})") from None
        if len(head) < _HEADER.size:
            raise TraceError(f"{path}: truncated trace (no header)")
        magic, version, flags, meta_len, count, sha = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise TraceError(f"{path}: not a repro trace (bad magic)")
        if version != TRACE_FORMAT_VERSION:
            raise TraceError(
                f"{path}: unsupported trace format v{version} "
                f"(this build reads v{TRACE_FORMAT_VERSION})"
            )
        if count == 0:
            raise TraceError(f"{path}: empty trace")
        writes_len = -(-count // 8) if flags & _FLAG_WRITES else 0
        expected = _HEADER.size + meta_len + 8 * count + writes_len
        if size != expected:
            raise TraceError(
                f"{path}: truncated or padded trace "
                f"({size} bytes, header promises {expected})"
            )
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            meta_blob = fh.read(meta_len)
        lines = np.memmap(
            self.path, dtype="<i8", mode="r", offset=_HEADER.size + meta_len,
            shape=(count,),
        )
        packed = None
        if writes_len:
            packed = np.fromfile(
                self.path, dtype=np.uint8, count=writes_len,
                offset=_HEADER.size + meta_len + 8 * count,
            )
        if _payload_sha(meta_blob, lines, packed) != sha:
            raise TraceError(f"{path}: trace checksum mismatch (corrupt payload)")
        try:
            meta = json.loads(meta_blob.decode())
        except (UnicodeDecodeError, ValueError):
            raise TraceError(f"{path}: trace metadata is not valid JSON") from None
        if not isinstance(meta, dict):
            raise TraceError(f"{path}: trace metadata must be a JSON object")
        self.meta = meta
        self.lines = lines
        self.writes = (
            np.unpackbits(packed, count=count).astype(bool) if packed is not None else None
        )
        self.count = int(count)
        self.sha256 = sha.hex()
        self._footprint: int | None = None

    def __len__(self) -> int:
        return self.count

    def footprint_lines(self) -> int:
        """Distinct lines in the trace (computed once, then cached)."""
        if self._footprint is None:
            self._footprint = int(np.unique(self.lines).size)
        return self._footprint


def open_trace(path: str | Path) -> TraceFile:
    """Open and fully verify an RPAT trace file."""
    return TraceFile(path)


def trace_token(path: str | Path) -> dict:
    """Content token for cache keys: payload identity, not the path.

    Two byte-identical traces at different paths produce the same token, so
    the sweep result cache dedupes across copies; a re-recorded trace with
    different content invalidates cleanly.
    """
    tf = open_trace(path)
    return {"trace_sha256": tf.sha256, "count": tf.count, "meta": tf.meta}


def record_trace(
    workload: Workload,
    n_lines: int,
    path: str | Path,
    *,
    chunk_lines: int = 65536,
) -> None:
    """Record ``n_lines`` accesses of ``workload`` into an RPAT file.

    The workload is reset first, so the recording always starts from its
    initial state and a record → replay round trip is bit-exact.  The
    workload's timing scalars ride along in the metadata blob and become
    the replayer's scalars.
    """
    if n_lines < 1:
        raise TraceError(f"{path}: need at least one access to record")
    workload.reset()
    chunks: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    remaining = n_lines
    has_writes = workload.write_fraction > 0.0
    while remaining > 0:
        take = min(chunk_lines, remaining)
        lines, writes = workload.chunk(take)
        chunks.append(np.asarray(lines, dtype=np.int64))
        if has_writes:
            masks.append(
                np.asarray(writes, dtype=bool)
                if writes is not None
                else np.zeros(take, dtype=bool)
            )
        remaining -= take
    write_trace(
        path,
        np.concatenate(chunks),
        writes=np.concatenate(masks) if has_writes else None,
        meta={
            "benchmark": workload.name,
            "mem_fraction": workload.mem_fraction,
            "cpi_base": workload.cpi_base,
            "mlp": workload.mlp,
            "accesses_per_line": workload.accesses_per_line,
            "write_fraction": workload.write_fraction,
        },
    )


class TraceReplayWorkload(Workload):
    """Cyclic replay of a recorded access stream.

    Timing scalars default to the recording's metadata; the stream itself is
    exactly the recorded one, wrapped around at the end — the replay analog
    of the cyclic synthetic patterns.  Recorded write flags are replayed
    positionally (not re-drawn), so the stream is fully deterministic.
    """

    _cursor = ("_pos",)

    def __init__(
        self,
        name: str,
        lines: np.ndarray,
        *,
        writes: np.ndarray | None = None,
        mem_fraction: float = 0.3,
        cpi_base: float = 0.7,
        mlp: float = 2.0,
        accesses_per_line: float = 1.0,
        write_fraction: float = 0.0,
        seed: int | None = None,
    ):
        super().__init__(
            name,
            mem_fraction=mem_fraction,
            cpi_base=cpi_base,
            mlp=mlp,
            accesses_per_line=accesses_per_line,
            write_fraction=write_fraction,
            seed=seed,
        )
        if len(lines) == 0:
            raise TraceError(f"{name}: cannot replay an empty trace")
        self._trace_lines = lines
        self._trace_writes = writes
        self._footprint: int | None = None
        self._pos = 0

    def _take(self, arr: np.ndarray, n: int) -> np.ndarray:
        total = len(self._trace_lines)
        out = np.empty(n, dtype=arr.dtype)
        filled = 0
        pos = self._pos
        while filled < n:
            take = min(n - filled, total - pos)
            out[filled : filled + take] = arr[pos : pos + take]
            pos = (pos + take) % total
            filled += take
        return out

    def chunk(self, n_lines: int) -> tuple[np.ndarray, np.ndarray | None]:
        lines = self._take(self._trace_lines, n_lines).astype(np.int64, copy=False)
        writes = None
        if self._trace_writes is not None:
            writes = self._take(self._trace_writes, n_lines)
        self._pos = (self._pos + n_lines) % len(self._trace_lines)
        return lines, writes

    def _lines(self, n_lines: int) -> np.ndarray:  # pragma: no cover - chunk() overrides
        return self.chunk(n_lines)[0]

    def reset(self) -> None:
        super().reset()
        self._pos = 0

    def footprint_lines(self) -> int:
        if self._footprint is None:
            self._footprint = int(np.unique(np.asarray(self._trace_lines)).size)
        return self._footprint


def replay_trace(path: str | Path, *, name: str | None = None) -> TraceReplayWorkload:
    """Open ``path`` and build its mmap-backed replay workload.

    The line array stays memory-mapped — chunks copy only the slices they
    emit — so replaying a multi-GB trace costs O(chunk) resident memory.
    """
    tf = open_trace(path)
    meta = tf.meta
    return TraceReplayWorkload(
        name or str(meta.get("benchmark", Path(path).stem)),
        tf.lines,
        writes=tf.writes,
        mem_fraction=float(meta.get("mem_fraction", 0.3)),
        cpi_base=float(meta.get("cpi_base", 0.7)),
        mlp=float(meta.get("mlp", 2.0)),
        accesses_per_line=float(meta.get("accesses_per_line", 1.0)),
        write_fraction=float(meta.get("write_fraction", 0.0)),
    )


#: default recording budget of the self-recorded replay family (lines)
REPLAY_RECORD_LINES = 131072


def make_replay(
    source: str = "",
    working_set_mb: float = 2.0,
    *,
    record_lines: int = REPLAY_RECORD_LINES,
    instance: int = 0,
    seed: int = 0,
) -> TraceReplayWorkload:
    """The in-memory record → replay family member (no file involved).

    Records ``record_lines`` accesses of a source workload — the suite
    benchmark named ``source``, or a ``working_set_mb`` uniform-random
    micro benchmark when ``source`` is empty — then replays them
    cyclically.  Pure and deterministic in (source, seed), so the family is
    picklable by content and cache-keyable like every other TargetSpec
    kind.
    """
    from .micro import random_micro
    from .spec import make_benchmark

    if record_lines < 1:
        raise ConfigError("replay needs a positive recording budget")
    if source:
        wl = make_benchmark(source, instance=instance, seed=seed)
    else:
        wl = random_micro(working_set_mb, instance=instance, seed=seed)
    wl.reset()
    chunks = []
    masks = []
    remaining = record_lines
    while remaining > 0:
        take = min(65536, remaining)
        lines, writes = wl.chunk(take)
        chunks.append(np.asarray(lines, dtype=np.int64))
        masks.append(
            np.asarray(writes, dtype=bool)
            if writes is not None
            else np.zeros(take, dtype=bool)
        )
        remaining -= take
    return TraceReplayWorkload(
        f"replay({wl.name})",
        np.concatenate(chunks),
        writes=np.concatenate(masks) if wl.write_fraction > 0 else None,
        mem_fraction=wl.mem_fraction,
        cpi_base=wl.cpi_base,
        mlp=wl.mlp,
        accesses_per_line=wl.accesses_per_line,
        write_fraction=wl.write_fraction,
    )
