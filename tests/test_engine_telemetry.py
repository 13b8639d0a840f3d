"""Which engine ran: the harness's kernel telemetry.

``export_kernel_telemetry`` turns a hierarchy's per-(engine, path) chunk
counts into ``kernel_chunks_total`` counters and its ``kernel_degraded``
reason into one event per measurement.  Under ``kernel="auto"`` with a C
compiler every chunk is a ``c`` chunk; without one (or under
``kernel="scalar"``) every chunk is a ``scalar`` chunk and ``auto`` says
why.  Under ``NULL_TELEMETRY`` the export is skipped entirely.
"""

from __future__ import annotations

import pytest

from repro.caches import hierarchy
from repro.config import tiny_config
from repro.core.harness import measure_fixed_size
from repro.kernels import cext
from repro.observability import NULL_TELEMETRY, Telemetry
from repro.units import KB
from repro.workloads.target import TargetSpec

_HAS_CEXT = cext.available()


def _measure_tiny(kernel: str, tel) -> None:
    measure_fixed_size(
        TargetSpec("micro.random", working_set_mb=0.004),
        1 * KB,
        config=tiny_config(kernel=kernel),
        interval_instructions=500.0,
        n_intervals=1,
        telemetry=tel,
    )


def _degraded_events(tel) -> list[dict]:
    return [r for r in tel.fragment().records if r.get("name") == "kernel_degraded"]


@pytest.mark.parametrize("kernel", ["auto", "scalar"])
def test_harness_exports_engine_chunk_counts(kernel):
    tel = Telemetry()
    _measure_tiny(kernel, tel)
    counters = tel.metrics.to_dict()["counters"]
    chunks = {k: v for k, v in counters.items() if k.startswith("kernel_chunks_total")}
    want = "c" if kernel == "auto" and _HAS_CEXT else "scalar"
    engines = {k[k.index("engine=") + 7 : k.index(",")] for k in chunks}
    assert chunks and engines == {want}, chunks
    assert len(_degraded_events(tel)) == (kernel == "auto" and not _HAS_CEXT)


def test_harness_reports_degraded_auto(monkeypatch):
    monkeypatch.setattr(cext, "_tried", True)
    monkeypatch.setattr(cext, "_lib", None)
    monkeypatch.setattr(cext, "_reason", "no C compiler on PATH")
    monkeypatch.setattr(hierarchy, "_warned_reasons", set())
    tel = Telemetry()
    with pytest.warns(RuntimeWarning, match="no C compiler on PATH"):
        _measure_tiny("auto", tel)
    events = _degraded_events(tel)
    assert len(events) == 1
    assert events[0]["attrs"]["reason"] == "no C lowering: no C compiler on PATH"
    counters = tel.metrics.to_dict()["counters"]
    assert not any("engine=c" in k for k in counters)


def test_null_telemetry_skips_kernel_export(monkeypatch):
    from repro.core import harness

    def boom(*_args):
        raise AssertionError("exported under NULL_TELEMETRY")

    monkeypatch.setattr(harness, "export_kernel_telemetry", boom)
    _measure_tiny("auto", NULL_TELEMETRY)
