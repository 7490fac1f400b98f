"""The sacct reader's previous row parser, kept as a differential oracle.

:class:`~repro.data.slurm.SacctReader` resolves the nine column positions
once per header, indexes each split row directly and parses a timestamp
string once per job.  The parser it replaced looked every cell up by name
through a per-row closure and parsed every timestamp cell of every row; it
lives on here as :class:`ColumnDictReader`, a reader that differs from the
library's only in those two methods.

The tests load this file by path (``tests/fabric/oracles.py`` already owns
the module name ``oracles``).
"""

from __future__ import annotations

from typing import Optional

from repro.config.errors import ConfigurationError, TraceError
from repro.config.units import KiB, parse_size
from repro.data.slurm import (
    _FIELD_FALLBACKS,
    REQUIRED_FIELDS,
    SacctReader,
    _Row,
    parse_elapsed,
    parse_timestamp,
)


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
            elapsed = parse_elapsed(elapsed_text) if elapsed_text else 0.0
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
