"""Streaming ingestion of Slurm ``sacct`` accounting dumps.

Every workload in the repository used to be synthetic
(:mod:`repro.workloads` analytic models).  This module replays *real*
production traces instead: a pipe-separated ``sacct -P`` dump — the format
every Slurm site can export with one command::

    sacct -a -P -S 2024-01-01 -E 2024-07-01 \\
        -o JobIDRaw,State,NNodes,ElapsedRaw,MaxRSS,AveRSS,Submit,Start,End > trace.psv

becomes a stream of :class:`TraceJob` records that
:class:`~repro.casestudies.trace_replay.TraceReplayStudy` maps onto
:class:`~repro.scheduler.job.JobProfile` submissions.  ``MaxRSS``/``AveRSS``
give exactly the per-job memory footprints pool-aware placement needs, so a
multi-month machine trace answers "what if this machine's real workload ran
on a CXL-pooled rack?".

Design constraints (the tentpole contract):

* **Streaming.**  A multi-month trace holds millions of subjob rows;
  :class:`SacctReader` is a generator that buffers only the rows of the
  *current* job (an allocation plus its steps — a handful of lines), never
  the trace.  Peak memory is O(steps of one job), verified by test.
* **Step folding.**  ``sacct`` emits one row per job *step*
  (``123.batch``, ``123.extern``, ``123.0`` …) below each allocation row
  (``123``).  Steps are folded into their parent: folded ``NNodes``,
  ``MaxRSS``, ``AveRSS`` and elapsed are the **maximum** over the allocation
  and all steps (a fold is never below any constituent), timestamps are the
  envelope (earliest submit/start, latest end).  Rows of one job are assumed
  contiguous, which ``sacct`` guarantees; a re-appearing job id starts a new
  group.
* **Skip, don't crash.**  Malformed rows (bad column count, unparsable
  sizes/times) and jobs that cannot be replayed (``CANCELLED`` before
  starting, still ``RUNNING``, zero elapsed) are counted per reason in an
  :class:`IngestReport` — every consumed row is accounted as folded into a
  yielded job or skipped with a reason, an invariant the property suite
  pins.  Only *structural* problems (missing header columns) raise
  :class:`~repro.config.errors.TraceError`.

Units: RSS fields use Slurm's KiB-based suffixes and are parsed to **bytes**
by :func:`repro.config.units.parse_size`; downstream ``JobProfile.pool_gb``
is **decimal GB** (see ``docs/data.md`` for the conversion contract).
Telemetry counters ``data.slurm.rows_read`` / ``rows_skipped`` /
``steps_folded`` / ``jobs_yielded`` track ingestion when telemetry is on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..config.errors import ConfigurationError, TraceError
from ..config.units import KiB, parse_size
from ..telemetry import metrics

__all__ = [
    "REQUIRED_FIELDS",
    "IngestReport",
    "SacctReader",
    "SkippedRow",
    "TraceJob",
    "parse_elapsed",
    "parse_timestamp",
    "read_sacct",
    "synthesize_sacct_lines",
    "write_synthetic_trace",
]

#: Header columns the reader must find (``JobID`` is accepted for
#: ``JobIDRaw``; ``Elapsed`` for ``ElapsedRaw``).  Extra columns are ignored,
#: so site-specific exports with more fields ingest unchanged.
REQUIRED_FIELDS = ("JobIDRaw", "State", "NNodes", "ElapsedRaw", "MaxRSS", "Submit")

_FIELD_FALLBACKS = {"JobIDRaw": "JobID", "ElapsedRaw": "Elapsed"}

#: Every column the reader parses, in the order of
#: :meth:`SacctReader._resolve_columns`' positions: the required ones, then
#: the optional ``AveRSS``, ``Start`` and ``End``.
_COLUMNS = REQUIRED_FIELDS + ("AveRSS", "Start", "End")

#: Timestamp values sacct uses for "not applicable / not yet".
_NULL_TIMES = ("", "Unknown", "None", "N/A")

#: The one timestamp grammar, whatever ``datetime.fromisoformat`` accepts on
#: the running Python: ``YYYY-MM-DD``, optionally followed by ``T`` or a
#: space and ``HH[:MM[:SS[.fff[fff]]]]``, then optionally ``Z`` (UTC) or an
#: offset ``+HH:MM[:SS[.ffffff]]``.  Python 3.10's ``fromisoformat`` parses
#: every string it matches (once ``Z`` is spelled ``+00:00``) and later
#: versions parse them to the same instant; the forms only later versions
#: accept, such as the compact ``20240301T000500``, are malformed.
_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:Z|[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?"
)


def parse_elapsed(text: str) -> float:
    """Parse a Slurm elapsed time to seconds.

    Accepts ``[D-]HH:MM:SS[.fff]``, ``MM:SS[.fff]`` and bare (possibly
    fractional) seconds — the ``ElapsedRaw`` form.  Raises
    :class:`~repro.config.errors.ConfigurationError` with the offending text
    on anything else.

    >>> parse_elapsed("1-02:03:04")
    93784.0
    >>> parse_elapsed("05:30")
    330.0
    >>> parse_elapsed("42")
    42.0
    """
    if isinstance(text, str) and text.isascii() and text.isdigit():
        return float(text)  # ElapsedRaw; the grammar below gives the same float
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


def parse_timestamp(text: str) -> Optional[float]:
    """Parse a sacct timestamp (``2024-03-01T00:05:00``) to unix seconds.

    Returns ``None`` for sacct's null markers (``Unknown``, ``None``, empty)
    — a job that never started has ``Start=Unknown``.  Naive timestamps are
    taken as UTC (sacct emits site-local naive times; replay only uses
    *differences*, so the zone choice cancels out); a trailing ``Z`` means
    UTC.  The grammar (:data:`_TIMESTAMP`) is the same on every supported
    Python.

    >>> parse_timestamp("2024-03-01T00:05:00Z") == parse_timestamp("2024-03-01T00:05:00")
    True
    """
    cleaned = text.strip() if isinstance(text, str) else ""
    if cleaned in _NULL_TIMES:
        return None
    stamp = None
    if _TIMESTAMP.fullmatch(cleaned):
        if cleaned.endswith("Z"):
            cleaned = cleaned[:-1] + "+00:00"
        try:
            stamp = datetime.fromisoformat(cleaned)
        except ValueError:  # a field out of range, such as month 13 or Feb 30
            pass
    if stamp is None:
        raise ConfigurationError(
            f"malformed timestamp {text!r}: expected ISO like 2024-03-01T00:05:00"
        )
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


@dataclass(frozen=True)
class TraceJob:
    """One replayable job: an allocation with all its steps folded in.

    ``max_rss_bytes`` / ``ave_rss_bytes`` are per-task RSS in **bytes**
    (already through :func:`~repro.config.units.parse_size`), the maximum
    over the allocation and every step; multiply by ``nnodes`` for the job's
    aggregate footprint.  ``steps_folded`` counts the step rows absorbed —
    the allocation row itself is not a step.
    """

    job_id: str
    state: str
    nnodes: int
    elapsed_s: float
    max_rss_bytes: int
    ave_rss_bytes: int
    submit_unix: Optional[float]
    start_unix: Optional[float]
    end_unix: Optional[float]
    steps_folded: int = 0
    #: Total trace rows folded into this record (allocation row, if present,
    #: plus steps) — what the conservation invariant counts.
    rows_folded: int = 1

    @property
    def footprint_bytes(self) -> int:
        """Aggregate memory footprint: per-task peak RSS × nodes."""
        return self.max_rss_bytes * max(self.nnodes, 1)

    @property
    def wait_s(self) -> float:
        """Queueing delay between submit and start (0 when unknown)."""
        if self.submit_unix is None or self.start_unix is None:
            return 0.0
        return max(self.start_unix - self.submit_unix, 0.0)


@dataclass(frozen=True)
class SkippedRow:
    """One row (or whole job group) the reader refused, with its reason."""

    line_no: int
    reason: str
    text: str


@dataclass
class IngestReport:
    """Running totals of one ingestion pass (the ``SkippedRows`` report).

    Conservation invariant (pinned by the property suite): every data row
    read is either folded into a yielded job (allocation + steps) or counted
    in exactly one skip reason::

        rows_read == rows_in_yielded_jobs + rows_skipped

    ``examples`` retains the first few :class:`SkippedRow` per reason so a
    report names *what* was malformed without buffering a malformed trace.
    """

    rows_read: int = 0
    rows_in_yielded_jobs: int = 0
    jobs_yielded: int = 0
    steps_folded: int = 0
    skipped_by_reason: dict = field(default_factory=dict)
    examples: list = field(default_factory=list)
    max_examples: int = 20

    @property
    def rows_skipped(self) -> int:
        """Total rows refused, over all reasons."""
        return sum(self.skipped_by_reason.values())

    @property
    def conserved(self) -> bool:
        """Whether every row read is accounted for (fold or skip)."""
        return self.rows_read == self.rows_in_yielded_jobs + self.rows_skipped

    def skip(self, line_no: int, reason: str, text: str, rows: int = 1) -> None:
        """Record ``rows`` rows skipped for ``reason`` (one example kept).

        The example keeps the first 120 characters of ``text``; a text that
        explains a row names the fault before quoting the row.
        """
        self.skipped_by_reason[reason] = self.skipped_by_reason.get(reason, 0) + rows
        if len(self.examples) < self.max_examples:
            self.examples.append(SkippedRow(line_no=line_no, reason=reason, text=text[:120]))
        metrics().counter("data.slurm.rows_skipped").inc(rows)

    def summary(self) -> dict:
        """JSON-friendly report (what the CLI prints after a replay)."""
        return {
            "rows_read": self.rows_read,
            "jobs_yielded": self.jobs_yielded,
            "steps_folded": self.steps_folded,
            "rows_skipped": self.rows_skipped,
            "skipped_by_reason": dict(sorted(self.skipped_by_reason.items())),
            "conserved": self.conserved,
        }


@dataclass
class _Row:
    """One parsed data row, before folding."""

    line_no: int
    base_id: str
    step: str  # "" for the allocation row
    state: str
    nnodes: int
    elapsed_s: float
    max_rss_bytes: int
    ave_rss_bytes: int
    submit_unix: Optional[float]
    start_unix: Optional[float]
    end_unix: Optional[float]


#: States that mean "this job never ran (or has not finished) and cannot be
#: replayed".  ``CANCELLED`` jobs that *did* run (elapsed > 0) replay fine.
_UNFINISHED_STATES = ("RUNNING", "PENDING", "REQUEUED", "SUSPENDED", "RESIZING")


class SacctReader:
    """Streaming, step-folding reader of one ``sacct -P`` dump.

    Parameters
    ----------
    source:
        Path to the dump, or any iterable of lines (open file, list,
        generator) — the reader never rewinds, so a pipe works.
    delimiter:
        Field separator (``sacct -P`` uses ``|``).
    report:
        Optional shared :class:`IngestReport` (a fresh one by default,
        exposed as :attr:`report`).

    Iterating yields :class:`TraceJob` records in trace order.  The reader
    holds at most one job's rows at a time; :attr:`report` is live during
    iteration, complete after it.
    """

    def __init__(
        self,
        source: Union[str, Path, Iterable[str]],
        delimiter: str = "|",
        report: Optional[IngestReport] = None,
    ) -> None:
        self.source = source
        self.delimiter = delimiter
        self.report = report if report is not None else IngestReport()
        self._columns: Optional[tuple] = None
        # Parsed timestamps of the job whose rows are being read (see _parse_row).
        self._stamps_job: Optional[str] = None
        self._stamps: dict = {}

    # -- header -------------------------------------------------------------------

    def _resolve_columns(self, header_line: str) -> tuple:
        """The row width, then the position of each of :data:`_COLUMNS`
        (``None`` for a missing optional column)."""
        names = [name.strip() for name in header_line.rstrip("\n").split(self.delimiter)]
        index = {name: i for i, name in enumerate(names)}
        positions = []
        missing = []
        for wanted in _COLUMNS:
            found = index.get(wanted)
            if found is None:
                fallback = _FIELD_FALLBACKS.get(wanted)
                found = index.get(fallback) if fallback else None
            if found is None and wanted in REQUIRED_FIELDS:
                missing.append(wanted)
            positions.append(found)
        if missing:
            raise TraceError(
                f"sacct header is missing required column(s) {missing}; "
                f"got {names}. Export with: sacct -P -o "
                "JobIDRaw,State,NNodes,ElapsedRaw,MaxRSS,AveRSS,Submit,Start,End"
            )
        return (len(names), *positions)

    # -- row parsing --------------------------------------------------------------

    def _timestamp(self, fields: list, column: Optional[int]) -> Optional[float]:
        """:func:`parse_timestamp` of one cell, memoized for the current job."""
        if column is None:
            return None
        text = fields[column]
        stamps = self._stamps
        if text in stamps:
            return stamps[text]
        # Stripped first, as every other cell is, so a skip quotes the cell.
        stamp = stamps[text] = parse_timestamp(text.strip())
        return stamp

    def _parse_row(self, line_no: int, line: str) -> Optional[_Row]:
        """One data row, or ``None`` after recording a skip.

        Fields are parsed in a fixed order (NNodes, ElapsedRaw, MaxRSS,
        AveRSS, Submit, Start, End), so the first bad one names the skip.
        The timestamp memo holds the current job's strings only: it is
        dropped when a row of the next job arrives, which is when the
        current job's group folds.
        """
        fields = line.rstrip("\n").split(self.delimiter)
        (width, job_col, state_col, nnodes_col, elapsed_col, max_rss_col,
         submit_col, ave_rss_col, start_col, end_col) = self._columns
        if len(fields) != width:
            self.report.skip(line_no, "column-count", line)
            return None
        job_id = fields[job_col].strip()
        if not job_id:
            self.report.skip(line_no, "empty-job-id", line)
            return None
        base_id, _, step = job_id.partition(".")
        if base_id != self._stamps_job:
            self._stamps_job = base_id
            self._stamps = {}
        try:
            nnodes_text = fields[nnodes_col].strip()
            nnodes = int(nnodes_text) if nnodes_text else 0
            elapsed_text = fields[elapsed_col].strip()
            elapsed = parse_elapsed(elapsed_text) if elapsed_text else 0.0
            max_rss_text = fields[max_rss_col].strip()
            max_rss = parse_size(max_rss_text, default_multiplier=KiB) if max_rss_text else 0
            ave_rss_text = fields[ave_rss_col].strip() if ave_rss_col is not None else ""
            ave_rss = parse_size(ave_rss_text, default_multiplier=KiB) if ave_rss_text else 0
            submit = self._timestamp(fields, submit_col)
            start = self._timestamp(fields, start_col)
            end = self._timestamp(fields, end_col)
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
            state=fields[state_col].strip(),
            nnodes=nnodes,
            elapsed_s=elapsed,
            max_rss_bytes=max_rss,
            ave_rss_bytes=ave_rss,
            submit_unix=submit,
            start_unix=start,
            end_unix=end,
        )

    # -- folding ------------------------------------------------------------------

    def _fold(self, group: list) -> Optional[TraceJob]:
        """Fold one job's rows (allocation first if present) into a TraceJob.

        Folds are monotone: numeric fields take the maximum over all rows, so
        a folded value is never below any constituent step's — the invariant
        the property suite pins.  Returns ``None`` (after recording a skip
        covering the *whole group*) for jobs that cannot be replayed.

        One pass over the rows, in row order, keeping a value only when it
        compares ``>`` (``<`` for the earliest timestamps) with the one kept
        so far: the comparisons builtin ``max`` and ``min`` make, so a NaN
        elapsed wins exactly where ``max`` would keep it.
        """
        first = group[0]
        allocation = None
        steps = 0
        nnodes, elapsed = first.nnodes, first.elapsed_s
        max_rss, ave_rss = first.max_rss_bytes, first.ave_rss_bytes
        submit = start = end = None
        for row in group:
            if row.step:
                steps += 1
            elif allocation is None:
                allocation = row
            if row.nnodes > nnodes:
                nnodes = row.nnodes
            if row.elapsed_s > elapsed:
                elapsed = row.elapsed_s
            if row.max_rss_bytes > max_rss:
                max_rss = row.max_rss_bytes
            if row.ave_rss_bytes > ave_rss:
                ave_rss = row.ave_rss_bytes
            stamp = row.submit_unix
            if stamp is not None and (submit is None or stamp < submit):
                submit = stamp
            stamp = row.start_unix
            if stamp is not None and (start is None or stamp < start):
                start = stamp
            stamp = row.end_unix
            if stamp is not None and (end is None or stamp > end):
                end = stamp
        if allocation is None:
            allocation = first
        state = allocation.state.split()[0] if allocation.state else ""
        job = TraceJob(
            job_id=allocation.base_id,
            state=state,
            nnodes=nnodes,
            elapsed_s=elapsed,
            max_rss_bytes=max_rss,
            ave_rss_bytes=ave_rss,
            submit_unix=submit,
            start_unix=start,
            end_unix=end,
            steps_folded=steps,
            rows_folded=len(group),
        )
        if state in _UNFINISHED_STATES:
            reason = "unfinished"
        elif job.elapsed_s <= 0.0:
            # CANCELLED-before-start and zero-length jobs have no replayable
            # runtime; CANCELLED jobs that ran fold like COMPLETED ones.
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

    # -- iteration ----------------------------------------------------------------

    def _lines(self) -> Iterator[str]:
        if isinstance(self.source, (str, Path)):
            with open(self.source, "r", encoding="utf-8") as fh:
                yield from fh
        else:
            yield from self.source

    def __iter__(self) -> Iterator[TraceJob]:
        rows_read = metrics().counter("data.slurm.rows_read")
        lines = self._lines()
        header = None
        for line in lines:
            if line.strip():
                header = line
                break
        if header is None:
            raise TraceError("empty sacct dump: no header line")
        self._columns = self._resolve_columns(header)
        group: list = []
        for line_no, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            self.report.rows_read += 1
            rows_read.inc()
            row = self._parse_row(line_no, line)
            if row is None:
                continue
            if group and row.base_id != group[0].base_id:
                job = self._fold(group)
                group = [row]
                if job is not None:
                    yield job
            else:
                group.append(row)
        if group:
            job = self._fold(group)
            if job is not None:
                yield job


def read_sacct(
    source: Union[str, Path, Iterable[str]],
    limit: Optional[int] = None,
    window: Optional[tuple] = None,
    report: Optional[IngestReport] = None,
) -> Iterator[TraceJob]:
    """Stream :class:`TraceJob` records from a ``sacct -P`` dump.

    ``limit`` stops after that many yielded jobs (the stream is abandoned, so
    ingestion work is bounded too).  ``window`` is ``(start, end)`` in
    seconds relative to the **first yielded job's submit time**; jobs
    submitting outside it are filtered (counted under the
    ``outside-window`` skip reason).  Pass a shared ``report`` to observe
    totals; otherwise attach via :class:`SacctReader` directly.  The
    conservation invariant is exact for fully consumed streams; a ``limit``
    abandons the stream, leaving the trailing in-flight group's rows read
    but neither folded nor skipped.
    """
    reader = SacctReader(source, report=report)
    lo, hi = window if window is not None else (None, None)
    origin: Optional[float] = None
    yielded = 0
    jobs = iter(reader)
    while limit is None or yielded < limit:
        job = next(jobs, None)
        if job is None:
            return
        if window is not None:
            if origin is None:
                origin = job.submit_unix or 0.0
            offset = (job.submit_unix or 0.0) - origin
            if (lo is not None and offset < lo) or (hi is not None and offset > hi):
                # Re-book the group from "yielded" to a skip reason so the
                # conservation invariant holds for windowed reads too.
                reader.report.rows_in_yielded_jobs -= job.rows_folded
                reader.report.jobs_yielded -= 1
                reader.report.steps_folded -= job.steps_folded
                reader.report.skip(
                    0, "outside-window", f"job {job.job_id}", rows=job.rows_folded
                )
                continue
        yielded += 1
        yield job


# ---------------------------------------------------------------------------
# Synthetic trace generation (fixtures, benchmarks, anonymized examples).
# ---------------------------------------------------------------------------

#: Field order of synthesized dumps — a superset of :data:`REQUIRED_FIELDS`
#: in a realistic sacct column order.
SYNTHETIC_FIELDS = (
    "JobIDRaw",
    "JobName",
    "State",
    "NNodes",
    "ElapsedRaw",
    "MaxRSS",
    "AveRSS",
    "Submit",
    "Start",
    "End",
)

#: Trace epoch of synthesized dumps (an arbitrary, fixed, anonymized date).
_SYNTHETIC_EPOCH = datetime(2024, 1, 1, 0, 0, 0, tzinfo=timezone.utc)


def _stamp(offset_s: float) -> str:
    return (_SYNTHETIC_EPOCH + timedelta(seconds=float(offset_s))).strftime(
        "%Y-%m-%dT%H:%M:%S"
    )


def synthesize_sacct_lines(
    n_jobs: int,
    seed: int = 0,
    cancelled_fraction: float = 0.05,
    malformed_fraction: float = 0.01,
    mean_interarrival_s: float = 90.0,
) -> Iterator[str]:
    """Generate an anonymized synthetic ``sacct -P`` dump, one line at a time.

    Jobs mimic a production mix: 1–64 nodes (log-uniform), minutes-to-hours
    elapsed, KiB-suffixed RSS around a few GiB per task, one allocation row
    plus ``.batch``/``.extern`` and 0–2 numbered steps whose RSS never
    exceeds the fold invariant direction being tested (steps may exceed the
    allocation row, which carries no RSS — exactly like real sacct output).
    A ``cancelled_fraction`` of jobs are CANCELLED before starting and a
    ``malformed_fraction`` of rows are deliberately corrupted, so fixtures
    exercise every skip reason.  Fully deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    yield "|".join(SYNTHETIC_FIELDS) + "\n"
    submit = 0.0
    for index in range(n_jobs):
        submit += float(rng.exponential(mean_interarrival_s))
        job_id = str(100000 + index)
        name = f"job-{index:05d}"
        nnodes = int(np.clip(np.round(2.0 ** rng.uniform(0.0, 6.0)), 1, 64))
        elapsed = float(np.round(rng.uniform(60.0, 14400.0)))
        wait = float(rng.exponential(120.0))
        start = submit + wait
        end = start + elapsed
        rss_kib = int(rng.uniform(0.2, 8.0) * 1024 * 1024)  # 0.2-8 GiB per task

        def row(step: str, state: str, nn: int, el: float, max_rss: str, ave_rss: str,
                sub: float, st: Optional[float], en: Optional[float]) -> str:
            cells = (
                job_id + (f".{step}" if step else ""),
                name if not step else step,
                state,
                str(nn),
                str(int(el)),
                max_rss,
                ave_rss,
                _stamp(sub),
                _stamp(st) if st is not None else "Unknown",
                _stamp(en) if en is not None else "Unknown",
            )
            return "|".join(cells) + "\n"

        if rng.uniform() < cancelled_fraction:
            yield row("", "CANCELLED by 1000", nnodes, 0.0, "", "", submit, None, None)
            continue
        # Allocation row: no RSS (sacct reports RSS on steps only).
        yield row("", "COMPLETED", nnodes, elapsed, "", "", submit, start, end)
        steps = ["batch", "extern"] + [str(i) for i in range(int(rng.integers(0, 3)))]
        for step in steps:
            step_rss = max(int(rss_kib * rng.uniform(0.3, 1.0)), 1)
            ave = max(int(step_rss * rng.uniform(0.5, 1.0)), 1)
            step_elapsed = elapsed if step in ("batch", "extern") else elapsed * rng.uniform(0.1, 1.0)
            step_nodes = 1 if step == "batch" else nnodes
            yield row(
                step, "COMPLETED", step_nodes, step_elapsed,
                f"{step_rss}K", f"{ave}K", submit, start, end,
            )
        if rng.uniform() < malformed_fraction:
            yield f"{job_id}.???|garbage-row-with-too-few-columns\n"


def write_synthetic_trace(path: Union[str, Path], n_jobs: int, seed: int = 0, **kwargs) -> int:
    """Write a synthetic dump to ``path``; returns the number of lines."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in synthesize_sacct_lines(n_jobs, seed=seed, **kwargs):
            fh.write(line)
            count += 1
    return count
