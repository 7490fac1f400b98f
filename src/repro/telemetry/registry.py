"""Process-wide metrics registry: counters, gauges, histograms, timeseries.

One :class:`MetricsRegistry` per process is the single surface every
subsystem reports through — the fabric's contention solves and port
utilisation, the pool's admission decisions, the scheduler's event
throughput.  Instrument handles are get-or-create by name, so instrumented
code never needs to thread registry objects around::

    from repro.telemetry import metrics

    metrics().counter("fabric.solve.calls").inc()
    metrics().histogram("fabric.port.utilization").observe(utilization)

Telemetry is **off by default**.  While disabled, :func:`metrics` returns a
shared no-op registry whose instruments discard everything; the cost of an
instrumented call site is then one function call plus one attribute lookup,
which is what keeps the disabled-mode overhead unmeasurable on the hot
paths (``tools/bench_perf.py`` measures exactly this and records it in
``BENCH_cosim.json``).

Instrument types
----------------

=============  ====================================================
Counter        monotonically increasing count (events, admissions)
Gauge          last-written value (leased bytes, queue depth)
Histogram      distribution of observations (utilisations, latencies)
TimeSeries     rows of (time, columns) — simulation-output timelines
=============  ====================================================

:class:`TimeSeries` is special: it backs simulation *output* (the pool
timeline figures), so :class:`~repro.fabric.cosim.RackTelemetry` constructs
one directly and it always records, independent of the enabled flag.
Naming convention: dot-separated lowercase paths, ``<package>.<subject>.<what>``
(catalogued in ``docs/observability.md``).
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable, Mapping

#: Version tag written into every metrics/trace JSONL export.
TELEMETRY_SCHEMA = "repro.telemetry"
TELEMETRY_SCHEMA_VERSION = 1


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def as_record(self) -> dict:
        return {"kind": "metric", "type": "counter", "name": self.name, "value": self._value}


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def as_record(self) -> dict:
        return {"kind": "metric", "type": "gauge", "name": self.name, "value": self._value}


class Histogram:
    """Distribution of observations (all samples kept; runs are bounded)."""

    __slots__ = ("name", "description", "_values")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the observations (0-100)."""
        if not self._values:
            return math.nan
        ordered = sorted(self._values)
        rank = max(int(math.ceil(q / 100.0 * len(ordered))) - 1, 0)
        return ordered[min(rank, len(ordered) - 1)]

    def summary(self) -> dict:
        """count / sum / mean / min / p50 / p90 / max of the observations."""
        if not self._values:
            return {"count": 0, "sum": 0.0, "mean": math.nan, "min": math.nan,
                    "p50": math.nan, "p90": math.nan, "max": math.nan}
        total = float(sum(self._values))
        return {
            "count": len(self._values),
            "sum": total,
            "mean": total / len(self._values),
            "min": min(self._values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "max": max(self._values),
        }

    def as_record(self) -> dict:
        return {
            "kind": "metric",
            "type": "histogram",
            "name": self.name,
            "summary": self.summary(),
            "values": list(self._values),
        }


class TimeSeries:
    """Append-only rows of ``(time, *columns)`` with rollback-friendly trims.

    Backs epoch-resolution simulation timelines (pool occupancy, port
    utilisation).  Unlike the other instruments a timeseries always records:
    its contents are simulation output, not optional observability.
    """

    __slots__ = ("name", "columns", "times", "_columns")

    def __init__(self, name: str, columns: Iterable[str]) -> None:
        self.name = name
        self.columns = tuple(columns)
        if not self.columns:
            raise ValueError(f"timeseries {name!r} needs at least one column")
        self.times: list[float] = []
        self._columns: dict[str, list] = {c: [] for c in self.columns}

    def __len__(self) -> int:
        return len(self.times)

    def append(self, time: float, **values) -> None:
        if set(values) != set(self.columns):
            raise ValueError(
                f"timeseries {self.name!r} expects columns {self.columns}, "
                f"got {tuple(sorted(values))}"
            )
        self.times.append(float(time))
        for column, value in values.items():
            self._columns[column].append(value)

    def column(self, name: str) -> list:
        return self._columns[name]

    def drop_last(self) -> None:
        """Remove the most recent row (no-op when empty)."""
        if self.times:
            self.times.pop()
            for values in self._columns.values():
                values.pop()

    def trim_after(self, time: float, slack: float = 1e-12) -> None:
        """Drop every row recorded strictly after ``time`` (checkpoint rollback)."""
        while self.times and self.times[-1] > time + slack:
            self.drop_last()

    def series(self) -> dict:
        """All rows as plain column arrays, times under ``"time"``."""
        out: dict = {"time": list(self.times)}
        for column in self.columns:
            out[column] = list(self._columns[column])
        return out

    def as_record(self) -> dict:
        return {
            "kind": "metric",
            "type": "timeseries",
            "name": self.name,
            "columns": list(self.columns),
            "series": self.series(),
        }


class MetricsRegistry:
    """Named instruments, get-or-create, one namespace per registry."""

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls, *args) -> object:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, *args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} is already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get(name, Counter, description)  # type: ignore[return-value]

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get(name, Gauge, description)  # type: ignore[return-value]

    def histogram(self, name: str, description: str = "") -> Histogram:
        return self._get(name, Histogram, description)  # type: ignore[return-value]

    def timeseries(self, name: str, columns: Iterable[str]) -> TimeSeries:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = TimeSeries(name, columns)
            self._instruments[name] = instrument
        elif not isinstance(instrument, TimeSeries):
            raise TypeError(
                f"metric {name!r} is already registered as "
                f"{type(instrument).__name__}, not TimeSeries"
            )
        return instrument

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str):
        """The instrument registered under ``name`` (None when absent)."""
        return self._instruments.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._instruments))

    def reset(self) -> None:
        """Drop every instrument (a fresh namespace for the next run)."""
        self._instruments.clear()

    def snapshot(self) -> dict:
        """All instruments as plain-data records, keyed by metric name."""
        return {
            name: self._instruments[name].as_record()  # type: ignore[attr-defined]
            for name in self.names()
        }

    def merge(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The out-of-process aggregation primitive: a sweep worker snapshots
        its private registry, ships the plain-data dict across the process
        boundary, and the parent merges it here.  Semantics per instrument
        type:

        * **counter** — values add (work done elsewhere is still work done);
        * **gauge** — last write wins (the merged snapshot's value replaces
          the local one, in merge-call order);
        * **histogram** — observations append;
        * **timeseries** — rows append in snapshot order.

        Instruments missing locally are created; a name collision across
        instrument types raises ``TypeError`` exactly like local
        registration would.
        """
        for name in sorted(snapshot):
            self._merge_record(snapshot[name])

    def _merge_record(self, record: Mapping) -> None:
        """Fold one exported metric record into the registry."""
        if record.get("kind") != "metric":
            return
        kind = record["type"]
        name = record["name"]
        if kind == "counter":
            self.counter(name).inc(record["value"])
        elif kind == "gauge":
            self.gauge(name).set(record["value"])
        elif kind == "histogram":
            histogram = self.histogram(name)
            for value in record["values"]:
                histogram.observe(value)
        elif kind == "timeseries":
            columns = [c for c in record["columns"]]
            series = self.timeseries(name, columns)
            data = record["series"]
            for i, time in enumerate(data["time"]):
                series.append(time, **{c: data[c][i] for c in columns})
        else:
            raise ValueError(f"unknown metric type {kind!r} for {name!r}")

    # -- JSONL round trip -----------------------------------------------------------

    def write_jsonl(self, stream: IO[str]) -> int:
        """Write every instrument as one JSON line; returns lines written."""
        count = 0
        for name in self.names():
            record = self._instruments[name].as_record()  # type: ignore[attr-defined]
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
        return count

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "MetricsRegistry":
        """Rebuild a registry from exported metric records (JSONL round trip)."""
        registry = cls()
        for record in records:
            registry._merge_record(record)
        return registry


class _NoopInstrument:
    """Shared sink for every instrument call while telemetry is disabled."""

    __slots__ = ()
    name = "noop"
    description = ""
    value = 0.0
    count = 0
    values = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class NoopRegistry:
    """Registry stand-in whose instruments discard everything."""

    __slots__ = ()
    _NOOP = _NoopInstrument()

    def counter(self, name: str, description: str = "") -> _NoopInstrument:
        return self._NOOP

    def gauge(self, name: str, description: str = "") -> _NoopInstrument:
        return self._NOOP

    def histogram(self, name: str, description: str = "") -> _NoopInstrument:
        return self._NOOP
