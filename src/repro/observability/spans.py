"""Span-based instrumentation: what the harness did, when, inside what.

A :class:`Span` is one named region of harness work — a warm-up, a settle
co-run, one measurement interval, one sweep point — with **two clocks**:

* ``wall_s``: host wall time (``time.perf_counter``), the profiling view.
  Wall time is never deterministic and is therefore zeroed out of golden
  comparisons and excluded from the measurement half of summaries.
* ``cycles``: *simulated-machine* cycles, attributed explicitly by the
  harness (``span.add_cycles(machine.frontier - t0)``).  Cycle attribution
  is a pure function of the measurement inputs, so it is bit-identical
  between serial and parallel runs of the same sweep.

The :class:`SpanRecorder` keeps the open-span stack (nesting is positional:
a span started while another is open becomes its child) and appends plain
JSON-ready dict records to an event list: a ``span_start`` record when a
span opens, a ``span_end`` record when it closes, and ``event`` records for
point annotations (a retry escalation, a cache hit, a quarantined point).
Every start is guaranteed one end — spans are context managers, and even an
exception unwinds through ``__exit__`` — which is the balance invariant
``tests/test_observability_props.py`` pins.
"""

from __future__ import annotations

import time


class Span:
    """One open (or closed) instrumentation region.

    Use as a context manager::

        with recorder.span("interval", size_mb=4.0) as sp:
            ...  # run the machine
            sp.add_cycles(machine.frontier - t0)

    Attributes may be annotated any time before export; ``cycles``
    accumulates across :meth:`add_cycles` calls (a retried interval
    attributes every attempt to the same span).
    """

    __slots__ = ("recorder", "name", "span_id", "parent_id", "depth", "attrs",
                 "cycles", "wall_s", "_t0", "closed")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.span_id: int | None = None  # assigned when the span opens
        self.parent_id: int | None = None
        self.depth = 0
        self.attrs = attrs
        self.cycles = 0.0
        self.wall_s = 0.0
        self._t0 = 0.0
        self.closed = False

    def annotate(self, **attrs) -> None:
        """Attach or update attributes on this span."""
        self.attrs.update(attrs)

    def add_cycles(self, cycles: float) -> None:
        """Attribute simulated-machine cycles to this span (accumulates)."""
        self.cycles += cycles

    def __enter__(self) -> "Span":
        self.recorder._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.recorder._close(self, error=exc_type.__name__ if exc_type else None)


class SpanRecorder:
    """Owns the open-span stack and the flat event stream.

    Records are plain dicts (see the JSONL schema in docs/API.md), appended
    in program order: a ``span_start`` on open, interleaved ``event``
    records, a ``span_end`` on close.  IDs are sequential per recorder;
    :meth:`absorb` splices a child recorder's stream in with IDs re-based,
    parenting the child's root spans under the currently open span.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[Span] = []
        self._next_id = 0

    # -- the public surface ---------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A new span, opened on ``__enter__`` under the current span."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """A point annotation inside the currently open span (or at root)."""
        self.records.append({
            "type": "event",
            "id": self._take_id(),
            "span": self._stack[-1].span_id if self._stack else None,
            "name": name,
            "attrs": attrs,
        })

    @property
    def open_depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    # -- span lifecycle -------------------------------------------------------------

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _open(self, span: Span) -> None:
        if span.closed or span.span_id is not None:
            raise ValueError(f"span {span.name!r} cannot be reopened")
        span.span_id = self._take_id()
        span.parent_id = self._stack[-1].span_id if self._stack else None
        span.depth = len(self._stack)
        span._t0 = time.perf_counter()
        self._stack.append(span)
        self.records.append({
            "type": "span_start",
            "id": span.span_id,
            "parent": span.parent_id,
            "depth": span.depth,
            "name": span.name,
            "attrs": span.attrs,
        })

    def _close(self, span: Span, error: str | None = None) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} closed out of order (open: "
                f"{[s.name for s in self._stack]})"
            )
        self._stack.pop()
        span.closed = True
        span.wall_s = time.perf_counter() - span._t0
        record = {
            "type": "span_end",
            "id": span.span_id,
            "name": span.name,
            "cycles": span.cycles,
            "wall_s": span.wall_s,
        }
        if error is not None:
            record["error"] = error
        self.records.append(record)

    # -- merging worker-side streams ------------------------------------------------

    def absorb(self, records: list[dict]) -> None:
        """Splice a child recorder's stream in, re-based onto this one.

        IDs are offset past every ID this recorder has handed out, root
        spans are re-parented under the currently open span, and depths are
        shifted accordingly — so a point measured in a pool worker shows up
        nested under the parent's sweep span exactly as a serially measured
        point would.
        """
        if not records:
            return
        offset = self._next_id
        base_parent = self._stack[-1].span_id if self._stack else None
        base_depth = len(self._stack)
        max_id = -1
        for r in records:
            r = dict(r)
            r["id"] = r["id"] + offset
            max_id = max(max_id, r["id"])
            if r["type"] == "span_start":
                r["parent"] = base_parent if r["parent"] is None else r["parent"] + offset
                r["depth"] = r["depth"] + base_depth
            elif r["type"] == "event":
                r["span"] = base_parent if r.get("span") is None else r["span"] + offset
            self.records.append(r)
        self._next_id = max_id + 1
