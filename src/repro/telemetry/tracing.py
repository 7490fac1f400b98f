"""Span-based tracing with monotonic timing and parent/child nesting.

A *span* brackets one unit of work — a contention solve, a baseline
profiling run, a whole scheduler event loop — and records its wall-clock
duration plus arbitrary attributes::

    from repro.telemetry import trace_span

    with trace_span("fabric.solve", nodes=4):
        ...

Spans nest: the span active when a new one opens becomes its parent, so an
exported trace reconstructs the call tree (``parent``/``depth`` fields).
Span indices are assigned in *opening* order, which makes trace output
deterministic for a fixed clock — the property the telemetry tests pin.

Tracing shares the process-wide enabled flag with the metrics registry.
While disabled, :func:`trace_span` returns one shared no-op context manager
whose ``__enter__``/``__exit__`` do nothing; that flag check is the entire
cost of a disabled call site.

The clock defaults to :func:`time.perf_counter` (monotonic).  Tests inject a
deterministic fake clock via :class:`Tracer`'s ``clock`` parameter.
"""

from __future__ import annotations

import json
import time
from typing import IO, Callable, Iterable, Mapping, Optional


class SpanRecord:
    """One recorded span: timing, position in the trace tree, attributes."""

    __slots__ = ("name", "index", "parent", "depth", "start", "end", "attrs")

    def __init__(
        self,
        name: str,
        index: int,
        parent: Optional[int],
        depth: int,
        start: float,
        attrs: dict,
    ) -> None:
        self.name = name
        self.index = index
        self.parent = parent
        self.depth = depth
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def as_record(self) -> dict:
        return {
            "kind": "span",
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class _ActiveSpan:
    """Context manager pushing/popping one span on its tracer's stack."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._record)


class _NoopSpan:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans for one process (or one test, with a fake clock)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("name", key=value):``."""
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            name=name,
            index=len(self.spans),
            parent=parent.index if parent is not None else None,
            depth=len(self._stack),
            start=self.clock(),
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record)
        return _ActiveSpan(self, record)

    def _close(self, record: SpanRecord) -> None:
        record.end = self.clock()
        # Unwind to (and including) the closing span so a mis-nested exit
        # cannot leave stale parents behind.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    # -- aggregation ----------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per-span-name totals: count, total/mean/max duration (closed spans)."""
        stats: dict[str, dict] = {}
        for span in self.spans:
            if span.end is None:
                continue
            entry = stats.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["max_s"] = max(entry["max_s"], span.duration)
        for entry in stats.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return stats

    def top_spans(self, n: int = 10) -> list[tuple[str, dict]]:
        """The ``n`` span names with the largest total duration, descending."""
        stats = self.aggregate()
        ordered = sorted(stats.items(), key=lambda kv: (-kv[1]["total_s"], kv[0]))
        return ordered[:n]

    # -- JSONL ----------------------------------------------------------------------

    def write_jsonl(self, stream: IO[str]) -> int:
        """Write every closed span as one JSON line; returns lines written."""
        count = 0
        for span in self.spans:
            if span.end is None:
                continue
            stream.write(json.dumps(span.as_record(), sort_keys=True) + "\n")
            count += 1
        return count

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "Tracer":
        """Rebuild a tracer's span list from exported records."""
        tracer = cls()
        for record in records:
            if record.get("kind") != "span":
                continue
            span = SpanRecord(
                name=record["name"],
                index=record["index"],
                parent=record["parent"],
                depth=record["depth"],
                start=record["start"],
                attrs=dict(record.get("attrs", {})),
            )
            span.end = record["end"]
            tracer.spans.append(span)
        tracer.spans.sort(key=lambda s: s.index)
        return tracer
