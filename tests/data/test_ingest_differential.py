"""The sacct reader against its previous row parser (hypothesis).

``oracles.ColumnDictReader`` is the reader with the row parser
:class:`~repro.data.slurm.SacctReader` used to have: every cell looked up by
column name, every timestamp cell parsed.  The library now resolves the
column positions once per header and parses each distinct timestamp string
once per job.  Both must yield the same jobs and the same report, down to
the skip reason and message of every refused row.

``HYPOTHESIS_PROFILE=nightly`` raises the example budget (conftest.py).
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from repro.config.errors import TraceError
from repro.data.slurm import IngestReport, SacctReader, synthesize_sacct_lines

HERE = Path(__file__).resolve().parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load("data_oracles", HERE / "oracles.py")

#: Cell values per column kind: well-formed ones, sacct's null markers and
#: malformed ones, so that rows with one and with two bad fields both occur.
NUMBERS = ["", "1", "2", " 4 ", "64", "0", "-1", "x", "1.5"]
ELAPSED = ["", "100", "0", "42.5", "1-00:00:01", "05:30", "02:03:04", "bad", "-5", "1:2:3:4"]
SIZES = ["", "0", "1024K", "2G", "12.5M", "4056Kn", "77c", "512", "-1K", "abcK", "K"]
STAMPS = [
    "2024-01-01T00:00:00",
    "2024-01-01T00:01:00",
    "2024-01-01T02:00:00",
    " 2024-01-01T00:00:00 ",
    "2024-01-01 00:05:00",
    "2024-01-01T00:05:00Z",
    "2024-01-01T00:05:00.250+01:00",
]
NULL_STAMPS = ["", "Unknown", "None", "N/A", " Unknown "]
BAD_STAMPS = [
    "yesterday",
    " yesterday ",
    "20240101T000500",
    "2024-02-30T00:00:00",
    " 2024-01-01T24:00:00",
    "2024-01-01T",
]
STATES = ["COMPLETED", "CANCELLED by 1000", "RUNNING", "FAILED", "TIMEOUT", "", " PENDING "]

#: Columns a header may carry beyond the nine the reader parses.
EXTRAS = ["JobName", "Partition", "Account"]


@st.composite
def headers(draw):
    """A column list: the required ones (possibly by their fallback names),
    some of the optional ones, some extra ones, in any order."""
    columns = [
        draw(st.sampled_from(["JobIDRaw", "JobID"])),
        "State",
        "NNodes",
        draw(st.sampled_from(["ElapsedRaw", "Elapsed"])),
        "MaxRSS",
        "Submit",
    ]
    columns += [name for name in ("AveRSS", "Start", "End") if draw(st.booleans())]
    columns += draw(st.lists(st.sampled_from(EXTRAS), unique=True, max_size=2))
    if draw(st.booleans()):
        # Both spellings present: the preferred one wins.
        columns.append("JobID" if columns[0] == "JobIDRaw" else "JobIDRaw")
    return draw(st.permutations(columns))


def cell_values(column: str):
    if column in ("JobIDRaw", "JobID"):
        return st.sampled_from(["7", "7.batch", "7.0", "8", "8.extern", "9.1", "", "  "])
    if column == "State":
        return st.sampled_from(STATES)
    if column == "NNodes":
        return st.sampled_from(NUMBERS)
    if column in ("ElapsedRaw", "Elapsed"):
        return st.sampled_from(ELAPSED)
    if column in ("MaxRSS", "AveRSS"):
        return st.sampled_from(SIZES)
    if column in ("Submit", "Start", "End"):
        return st.one_of(
            st.sampled_from(STAMPS), st.sampled_from(NULL_STAMPS), st.sampled_from(BAD_STAMPS)
        )
    return st.sampled_from(["x", "", "a b"])


@st.composite
def dumps(draw):
    """A header and rows: runs of one job's rows, stray rows of the wrong
    width and blank lines."""
    columns = draw(headers())
    lines = ["|".join(columns) + "\n"]
    for _ in range(draw(st.integers(0, 10))):
        base = draw(st.sampled_from(["7", "8", "9", "10"]))
        for index in range(draw(st.integers(1, 4))):
            cells = [draw(cell_values(column)) for column in columns]
            job_column = next(i for i, c in enumerate(columns) if c in ("JobIDRaw", "JobID"))
            if draw(st.integers(0, 9)):  # mostly rows of this job
                cells[job_column] = base if index == 0 else f"{base}.{index - 1}"
            shape = draw(st.integers(0, 19))
            if shape == 0:
                cells.append("extra")
            elif shape == 1:
                cells.pop()
            lines.append("|".join(cells) + "\n")
            if shape == 2:
                lines.append("\n")
    return lines


@dataclass
class FullReport(IngestReport):
    """An :class:`IngestReport` that also logs every skip in full
    (``examples`` keeps the first 20, each cut at 120 characters)."""

    skips: list = field(default_factory=list)

    def skip(self, line_no: int, reason: str, text: str, rows: int = 1) -> None:
        self.skips.append((line_no, reason, text, rows))
        super().skip(line_no, reason, text, rows)


def assert_same_ingest(lines):
    """Both readers yield equal jobs and equal reports; returns the jobs."""
    runs = []
    for reader_class in (SacctReader, oracles.ColumnDictReader):
        report = FullReport()
        runs.append((list(reader_class(lines, report=report)), report))
    (new_jobs, new), (old_jobs, old) = runs
    assert new_jobs == old_jobs
    assert new.summary() == old.summary()
    assert new.examples == old.examples
    assert new.skips == old.skips
    assert new.conserved
    return new_jobs


@given(lines=dumps())
def test_reader_matches_the_column_dict_oracle(lines):
    assert_same_ingest(lines)


@given(seed=st.integers(0, 2**16), n_jobs=st.integers(0, 40))
def test_synthetic_dumps_match_the_oracle(seed, n_jobs):
    assert_same_ingest(list(synthesize_sacct_lines(n_jobs, seed=seed, malformed_fraction=0.2)))


def test_the_committed_fixture_matches_the_oracle():
    lines = (HERE / "fixtures" / "sacct_synthetic.txt").read_text().splitlines(keepends=True)
    assert assert_same_ingest(lines)


#: One bad value per parsed field, each padded with spaces (cells are
#: stripped before they are parsed and quoted).
BAD_CELLS = {
    "NNodes": " x ",
    "ElapsedRaw": " 1:2:3:4 ",
    "MaxRSS": " abcK ",
    "AveRSS": " -1K ",
    "Submit": " yesterday ",
    "Start": " 20240101T000500 ",
    "End": " 2024-02-30T00:00:00 ",
}
GOOD_ROW = {
    "JobIDRaw": "7",
    "State": "COMPLETED",
    "NNodes": "2",
    "ElapsedRaw": "100",
    "MaxRSS": "1024K",
    "AveRSS": "512K",
    "Submit": "2024-01-01T00:00:00",
    "Start": "2024-01-01T00:01:00",
    "End": "2024-01-01T02:00:00",
}


@pytest.mark.parametrize(
    "bad", [(a, b) for i, a in enumerate(BAD_CELLS) for b in list(BAD_CELLS)[i + 1:]]
)
def test_the_first_bad_field_names_the_skip(bad):
    """Every pair of bad fields: the reader parses in the oracle's order."""
    header = "|".join(GOOD_ROW) + "\n"
    cells = [BAD_CELLS[name] if name in bad else value for name, value in GOOD_ROW.items()]
    assert assert_same_ingest([header, "|".join(cells) + "\n"]) == []


@pytest.mark.parametrize("header", ["JobIDRaw|State|NNodes|MaxRSS|Submit\n", "\n"])
def test_structural_errors_match_the_oracle(header):
    lines = [header, "1|COMPLETED|1|1K|2024-01-01T00:00:00\n"]
    messages = []
    for reader_class in (SacctReader, oracles.ColumnDictReader):
        with pytest.raises(TraceError) as raised:
            list(reader_class(lines))
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
