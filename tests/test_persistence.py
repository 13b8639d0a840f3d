"""Trace save/load and curve CSV export."""

import numpy as np
import pytest

from repro.core.curves import CurvePoint, PerformanceCurve
from repro.errors import TraceError
from repro.tracing import AddressTrace
from repro.units import MB
from repro.workloads.tracefile import write_trace


def test_trace_roundtrip(tmp_path):
    trace = AddressTrace(
        "mcf",
        np.arange(1000, dtype=np.int64) * 7,
        writes=(np.arange(1000) % 3 == 0),
        start_marker=2e6,
        stop_marker=4e6,
        accesses_per_line=2.0,
        meta={"mem_fraction": 0.3},
    )
    path = tmp_path / "mcf.npz"
    trace.save(path)
    loaded = AddressTrace.load(path)
    assert loaded.benchmark == "mcf"
    assert np.array_equal(loaded.lines, trace.lines)
    assert np.array_equal(loaded.writes, trace.writes)
    assert loaded.start_marker == 2e6 and loaded.stop_marker == 4e6
    assert loaded.accesses_per_line == 2.0
    assert loaded.meta == {"mem_fraction": 0.3}


def test_trace_roundtrip_without_writes(tmp_path):
    trace = AddressTrace("x", np.arange(10))
    path = tmp_path / "x.npz"
    trace.save(path)
    loaded = AddressTrace.load(path)
    assert loaded.writes is None
    assert len(loaded) == 10


def test_loaded_trace_usable_by_simulator(tmp_path):
    from repro.reference import reference_curve
    from repro.workloads.micro import random_micro

    wl = random_micro(1.0, seed=2)
    lines, _ = wl.chunk(50_000)
    trace = AddressTrace("rand1", lines)
    path = tmp_path / "t.npz"
    trace.save(path)
    a = reference_curve(trace, [2.0])
    b = reference_curve(AddressTrace.load(path), [2.0])
    assert a.fetch_ratio[0] == pytest.approx(b.fetch_ratio[0])


def _saved(tmp_path):
    path = tmp_path / "mcf.rpat"
    AddressTrace("mcf", np.arange(1000) * 7, writes=np.arange(1000) % 3 == 0).save(path)
    return path


def test_truncated_trace_file_raises_one_trace_error(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(TraceError, match="truncated"):
        AddressTrace.load(path)


def test_tampered_trace_byte_raises_one_trace_error(tmp_path):
    path = _saved(tmp_path)
    data = bytearray(path.read_bytes())
    data[-500] ^= 0x01  # one bit of one line address
    path.write_bytes(bytes(data))
    with pytest.raises(TraceError, match="checksum"):
        AddressTrace.load(path)


def test_foreign_trace_file_raises_one_trace_error(tmp_path):
    # a valid RPAT file the replayer recorded, without AddressTrace's meta
    path = tmp_path / "replay.rpat"
    write_trace(path, np.arange(10), meta={"mem_fraction": 0.3})
    with pytest.raises(TraceError, match="not an address trace"):
        AddressTrace.load(path)


def test_curve_to_csv():
    curve = PerformanceCurve("bench", [
        CurvePoint(2 * MB, 2.0, 1.5, 0.06, 0.03, 0.01, True, 3),
        CurvePoint(8 * MB, 1.0, 1.0, 0.02, 0.01, 0.0, False, 2),
    ])
    csv = curve.to_csv()
    lines = csv.splitlines()
    assert lines[0].startswith("cache_mb,cpi,")
    assert len(lines) == 3
    assert lines[1].startswith("2.000,2.000000")
    assert lines[2].endswith(",0,2")  # valid=False, intervals=2
