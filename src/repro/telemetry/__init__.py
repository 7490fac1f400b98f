"""Unified metrics/tracing layer (``repro.telemetry``).

The observability surface of the whole simulation stack: a process-wide
:class:`MetricsRegistry` (counters, gauges, histograms, timeseries), span
tracing with monotonic wall-clock timing, JSONL export, and the report
renderer behind ``repro-dmem telemetry report``.

Telemetry is **disabled by default** and compiled down to a no-op fast path:
:func:`metrics` hands out a shared no-op registry and :func:`trace_span`
returns a shared no-op context manager, so instrumented hot paths (the
scheduler event loop, the contention solve) pay one flag check per call
site.  ``tools/bench_perf.py`` measures that disabled-mode overhead and
records it in ``BENCH_cosim.json``.

Typical enablement (what the CLI's ``--telemetry``/``--trace-out`` flags do)::

    from repro import telemetry

    telemetry.enable(reset=True)      # fresh registry + tracer, recording on
    ...run the simulation...
    with open("run.jsonl", "w") as fh:
        telemetry.write_jsonl(fh)     # metrics + spans, schema-versioned
    telemetry.disable()

Metric names and the span taxonomy are catalogued in
``docs/observability.md``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import IO, Optional

from .registry import (
    TELEMETRY_SCHEMA,
    TELEMETRY_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopRegistry,
    TimeSeries,
)
from .tracing import NOOP_SPAN, SpanRecord, Tracer

__all__ = [
    "TELEMETRY_SCHEMA",
    "TELEMETRY_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopRegistry",
    "SpanRecord",
    "TimeSeries",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "isolated",
    "metrics",
    "read_jsonl",
    "trace_span",
    "tracer",
    "write_jsonl",
]

_REGISTRY = MetricsRegistry()
_NOOP_REGISTRY = NoopRegistry()
_TRACER = Tracer()
_ENABLED = False


def enable(reset: bool = False) -> None:
    """Turn recording on; ``reset=True`` starts from an empty registry/tracer."""
    global _ENABLED
    if reset:
        _REGISTRY.reset()
        _TRACER.reset()
    _ENABLED = True


def disable() -> None:
    """Turn recording off (already-collected data stays readable)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _ENABLED


def metrics():
    """The active metrics registry (a shared no-op registry while disabled)."""
    return _REGISTRY if _ENABLED else _NOOP_REGISTRY


def registry() -> MetricsRegistry:
    """The real process registry, regardless of the enabled flag (read side)."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process tracer (read side; recording honours the enabled flag)."""
    return _TRACER


def trace_span(name: str, **attrs):
    """Open a span on the process tracer (shared no-op while disabled)."""
    if not _ENABLED:
        return NOOP_SPAN
    return _TRACER.span(name, **attrs)


@contextmanager
def isolated(record: Optional[bool] = None):
    """Run a block against a private, fresh registry and tracer.

    Swaps new instances in for the module globals for the duration of the
    block, yields the private :class:`MetricsRegistry`, and restores the
    previous registry, tracer and enabled flag afterwards — the collected
    data stays readable on the yielded object.

    This is the execution wrapper of the sweep engine
    (:mod:`repro.parallel`): every sweep task runs inside ``isolated(True)``
    whether it executes in a worker process or inline in the parent, so a
    serial run and a sharded run record into identically-scoped registries
    whose snapshots then :meth:`~MetricsRegistry.merge` into the parent —
    the keystone of the sharded-vs-serial bit-identity contract.

    ``record=None`` keeps the current enabled flag; True/False force it for
    the block.
    """
    global _REGISTRY, _TRACER, _ENABLED
    saved = (_REGISTRY, _TRACER, _ENABLED)
    _REGISTRY = MetricsRegistry()
    _TRACER = Tracer()
    if record is not None:
        _ENABLED = bool(record)
    try:
        yield _REGISTRY
    finally:
        _REGISTRY, _TRACER, _ENABLED = saved


# -- JSONL export / import -------------------------------------------------------------


def write_jsonl(
    stream: IO[str],
    registry_: Optional[MetricsRegistry] = None,
    tracer_: Optional[Tracer] = None,
) -> int:
    """Dump one run's telemetry (meta line, metrics, spans) as JSONL lines."""
    registry_ = registry_ if registry_ is not None else _REGISTRY
    tracer_ = tracer_ if tracer_ is not None else _TRACER
    meta = {
        "kind": "meta",
        "schema": TELEMETRY_SCHEMA,
        "version": TELEMETRY_SCHEMA_VERSION,
    }
    stream.write(json.dumps(meta, sort_keys=True) + "\n")
    lines = 1
    lines += registry_.write_jsonl(stream)
    lines += tracer_.write_jsonl(stream)
    return lines


class TelemetryDump:
    """A parsed telemetry JSONL file: meta + rebuilt registry + rebuilt tracer."""

    def __init__(self, meta: dict, registry_: MetricsRegistry, tracer_: Tracer) -> None:
        self.meta = meta
        self.registry = registry_
        self.tracer = tracer_


def read_jsonl(stream: IO[str]) -> TelemetryDump:
    """Parse a file produced by :func:`write_jsonl` (round-trip exact)."""
    records = [json.loads(line) for line in stream if line.strip()]
    meta = next((r for r in records if r.get("kind") == "meta"), {})
    if meta and meta.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(
            f"not a telemetry dump: schema {meta.get('schema')!r}, "
            f"expected {TELEMETRY_SCHEMA!r}"
        )
    return TelemetryDump(
        meta=meta,
        registry_=MetricsRegistry.from_records(records),
        tracer_=Tracer.from_records(records),
    )
