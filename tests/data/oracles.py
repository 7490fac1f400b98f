"""The sacct reader's previous row parser and fold, kept as differential oracles.

:class:`~repro.data.slurm.SacctReader` resolves the nine column positions
once per header, indexes each split row directly and parses a timestamp
string once per job.  The parser it replaced looked every cell up by name
through a per-row closure and parsed every timestamp cell of every row; it
lives on here as :class:`ColumnDictReader`, a reader that differs from the
library's only in those two methods (and reads elapsed cells through
:func:`parse_elapsed_grammar`).

The library folds a job's rows in one pass and reads an all-digit elapsed
cell with one ``float()``.  :class:`ComprehensionFoldReader` keeps the fold
it replaced (builtin ``max``/``min`` over one comprehension per field), and
:func:`parse_elapsed_grammar` the elapsed parser without the shortcut.

The tests load this file by path (``tests/fabric/oracles.py`` already owns
the module name ``oracles``).
"""

from __future__ import annotations

from typing import Optional

from repro.config.errors import ConfigurationError, TraceError
from repro.config.units import KiB, parse_size
from repro.data.slurm import (
    _FIELD_FALLBACKS,
    _UNFINISHED_STATES,
    REQUIRED_FIELDS,
    SacctReader,
    TraceJob,
    _Row,
    parse_timestamp,
)
from repro.telemetry import metrics


def parse_elapsed_grammar(text: str) -> float:
    """``parse_elapsed`` through its general grammar only."""
    cleaned = text.strip() if isinstance(text, str) else ""
    if not cleaned:
        raise ConfigurationError("empty elapsed string (expected D-HH:MM:SS or seconds)")
    days = 0.0
    clock = cleaned
    if "-" in cleaned:
        day_text, _, clock = cleaned.partition("-")
        try:
            days = float(day_text)
        except ValueError:
            raise ConfigurationError(
                f"malformed elapsed {text!r}: day count {day_text!r} is not a number"
            ) from None
        if days < 0:
            raise ConfigurationError(f"elapsed {text!r} is negative")
    parts = clock.split(":")
    if len(parts) > 3:
        raise ConfigurationError(
            f"malformed elapsed {text!r}: expected at most HH:MM:SS"
        )
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(
            f"malformed elapsed {text!r}: expected D-HH:MM:SS, MM:SS or seconds"
        ) from None
    if any(n < 0 for n in numbers):
        raise ConfigurationError(f"elapsed {text!r} is negative")
    seconds = 0.0
    for number in numbers:
        seconds = seconds * 60.0 + number
    return days * 86400.0 + seconds


class ColumnDictReader(SacctReader):
    """A :class:`SacctReader` whose rows go through a name -> position dict."""

    def _resolve_columns(self, header_line: str) -> dict:
        names = [name.strip() for name in header_line.rstrip("\n").split(self.delimiter)]
        index = {name: i for i, name in enumerate(names)}
        columns = {}
        missing = []
        for wanted in REQUIRED_FIELDS + ("AveRSS", "Start", "End"):
            found = index.get(wanted)
            if found is None:
                fallback = _FIELD_FALLBACKS.get(wanted)
                found = index.get(fallback) if fallback else None
            if found is None:
                if wanted in REQUIRED_FIELDS:
                    missing.append(wanted)
                continue
            columns[wanted] = found
        if missing:
            raise TraceError(
                f"sacct header is missing required column(s) {missing}; "
                f"got {names}. Export with: sacct -P -o "
                "JobIDRaw,State,NNodes,ElapsedRaw,MaxRSS,AveRSS,Submit,Start,End"
            )
        columns["_width"] = len(names)
        return columns

    def _parse_row(self, line_no: int, line: str) -> Optional[_Row]:
        fields = line.rstrip("\n").split(self.delimiter)
        columns = self._columns
        assert columns is not None
        if len(fields) != columns["_width"]:
            self.report.skip(line_no, "column-count", line)
            return None

        def cell(name: str) -> str:
            i = columns.get(name)
            return fields[i].strip() if i is not None else ""

        job_id = cell("JobIDRaw")
        if not job_id:
            self.report.skip(line_no, "empty-job-id", line)
            return None
        base_id, _, step = job_id.partition(".")
        try:
            nnodes_text = cell("NNodes")
            nnodes = int(nnodes_text) if nnodes_text else 0
            elapsed_text = cell("ElapsedRaw")
            elapsed = parse_elapsed_grammar(elapsed_text) if elapsed_text else 0.0
            max_rss_text = cell("MaxRSS")
            max_rss = parse_size(max_rss_text, default_multiplier=KiB) if max_rss_text else 0
            ave_rss_text = cell("AveRSS")
            ave_rss = parse_size(ave_rss_text, default_multiplier=KiB) if ave_rss_text else 0
            submit = parse_timestamp(cell("Submit"))
            start = parse_timestamp(cell("Start"))
            end = parse_timestamp(cell("End"))
        except (ConfigurationError, ValueError) as exc:
            self.report.skip(line_no, "malformed-field", f"{exc}: {line!r}")
            return None
        if nnodes < 0:
            self.report.skip(line_no, "malformed-field", f"negative NNodes: {line!r}")
            return None
        return _Row(
            line_no=line_no,
            base_id=base_id,
            step=step,
            state=cell("State"),
            nnodes=nnodes,
            elapsed_s=elapsed,
            max_rss_bytes=max_rss,
            ave_rss_bytes=ave_rss,
            submit_unix=submit,
            start_unix=start,
            end_unix=end,
        )


class ComprehensionFoldReader(SacctReader):
    """A :class:`SacctReader` that folds each field with its own pass."""

    def _fold(self, group: list) -> Optional[TraceJob]:
        allocation = next((row for row in group if not row.step), group[0])
        state = allocation.state.split()[0] if allocation.state else ""
        submits = [r.submit_unix for r in group if r.submit_unix is not None]
        starts = [r.start_unix for r in group if r.start_unix is not None]
        ends = [r.end_unix for r in group if r.end_unix is not None]
        job = TraceJob(
            job_id=allocation.base_id,
            state=state,
            nnodes=max(row.nnodes for row in group),
            elapsed_s=max(row.elapsed_s for row in group),
            max_rss_bytes=max(row.max_rss_bytes for row in group),
            ave_rss_bytes=max(row.ave_rss_bytes for row in group),
            submit_unix=min(submits) if submits else None,
            start_unix=min(starts) if starts else None,
            end_unix=max(ends) if ends else None,
            steps_folded=sum(1 for row in group if row.step),
            rows_folded=len(group),
        )
        if state in _UNFINISHED_STATES:
            reason = "unfinished"
        elif job.elapsed_s <= 0.0:
            reason = "cancelled-no-runtime" if state.startswith("CANCELLED") else "zero-elapsed"
        elif job.submit_unix is None:
            reason = "no-submit-time"
        else:
            reason = None
        if reason is not None:
            self.report.skip(allocation.line_no, reason, f"job {job.job_id}", rows=len(group))
            return None
        self.report.rows_in_yielded_jobs += len(group)
        self.report.steps_folded += job.steps_folded
        self.report.jobs_yielded += 1
        registry = metrics()
        registry.counter("data.slurm.steps_folded").inc(job.steps_folded)
        registry.counter("data.slurm.jobs_yielded").inc()
        return job
