"""Property-based suite for the sacct ingester (hypothesis).

Pins the tentpole's algebraic contracts over wide input spaces:

* ``parse_size`` / ``parse_elapsed`` round-trip values rendered the way
  Slurm renders them;
* folding is monotone — a folded job's NNodes/RSS/elapsed is never below
  any constituent step's;
* row conservation — for any generated trace, fully consumed, every data
  row is folded into a yielded job or counted in exactly one skip reason;
* the one-pass fold and the all-digit elapsed shortcut give the bits of
  the per-field fold and the general grammar they replaced
  (``tests/data/oracles.py``).

``HYPOTHESIS_PROFILE=nightly`` raises the example budget (conftest.py).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from repro.config.errors import ConfigurationError
from repro.config.units import GiB, KiB, MiB, TiB, parse_size
from repro.data import slurm
from repro.data.slurm import IngestReport, SacctReader, parse_elapsed, read_sacct

HEADER = "JobIDRaw|State|NNodes|ElapsedRaw|MaxRSS|AveRSS|Submit|Start|End\n"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load("data_oracles", Path(__file__).resolve().parent / "oracles.py")


# -- parser round-trips -------------------------------------------------------


@given(kib=st.integers(min_value=0, max_value=10**12))
def test_parse_size_round_trips_kib_rendering(kib):
    """Slurm renders RSS as '<n>K'; parsing that must recover exact bytes."""
    assert parse_size(f"{kib}K") == kib * KiB


@given(
    value=st.integers(min_value=0, max_value=10**6),
    suffix=st.sampled_from(["K", "M", "G", "T"]),
)
def test_parse_size_suffixes_are_exactly_binary(value, suffix):
    unit = {"K": KiB, "M": MiB, "G": GiB, "T": TiB}[suffix]
    assert parse_size(f"{value}{suffix}") == value * unit


@given(kib=st.integers(min_value=0, max_value=10**9))
def test_parse_size_qualifier_suffix_is_transparent(kib):
    """Older sacct emits per-node/per-task qualifiers; they must not change bytes."""
    plain = parse_size(f"{kib}K")
    assert parse_size(f"{kib}Kn") == plain
    assert parse_size(f"{kib}Kc") == plain


@given(seconds=st.integers(min_value=0, max_value=10**7))
def test_parse_elapsed_round_trips_clock_rendering(seconds):
    """Render seconds the way sacct's Elapsed does; parsing must invert it."""
    days, rest = divmod(seconds, 86400)
    h, rest = divmod(rest, 3600)
    m, s = divmod(rest, 60)
    text = f"{days}-{h:02d}:{m:02d}:{s:02d}" if days else f"{h:02d}:{m:02d}:{s:02d}"
    assert parse_elapsed(text) == float(seconds)
    assert parse_elapsed(str(seconds)) == float(seconds)  # ElapsedRaw form


class _Spy(str):
    """A string that notes when the general elapsed grammar reads it (it
    strips its text first; the all-digit shortcut does not)."""

    general = False

    def strip(self, *chars):
        self.general = True
        return str.strip(self, *chars)


def _elapsed_outcome(parse, text):
    """What ``parse`` makes of ``text``: the float's repr, or the error's text."""
    try:
        return repr(parse(text))
    except ConfigurationError as exc:
        return f"ConfigurationError: {exc}"


@given(text=st.from_regex(r"[0-9]{1,400}", fullmatch=True))
@example(text="0")
@example(text="0000")
@example(text="9007199254740993")  # 2**53 + 1 rounds
@example(text="9" * 400)  # past the largest float
def test_an_all_digit_elapsed_skips_the_grammar_for_the_same_float(text):
    spy = _Spy(text)
    assert _elapsed_outcome(parse_elapsed, spy) == _elapsed_outcome(
        oracles.parse_elapsed_grammar, text
    )
    assert not spy.general


@pytest.mark.parametrize("text", ["\u00b2", "\u0663", "1\u00b2", "\u06630", " 42", "+42", "4_2", "42.0"])
def test_other_digits_still_take_the_general_grammar(text):
    """A superscript two or an Arabic-Indic three is a digit to ``str.isdigit``."""
    spy = _Spy(text)
    assert _elapsed_outcome(parse_elapsed, spy) == _elapsed_outcome(
        oracles.parse_elapsed_grammar, text
    )
    assert spy.general


# -- folding invariants -------------------------------------------------------

step_row = st.tuples(
    st.integers(min_value=1, max_value=64),      # nnodes
    st.integers(min_value=1, max_value=10**6),   # elapsed seconds
    st.integers(min_value=0, max_value=10**8),   # max rss KiB
    st.integers(min_value=0, max_value=10**8),   # ave rss KiB
)


@given(steps=st.lists(step_row, min_size=0, max_size=6), alloc=step_row)
def test_fold_is_never_below_any_constituent(steps, alloc):
    def render(job_id, cells):
        nn, el, mx, av = cells
        return (
            f"{job_id}|COMPLETED|{nn}|{el}|{mx}K|{av}K|"
            "2024-01-01T00:00:00|2024-01-01T00:01:00|2024-01-01T01:00:00\n"
        )

    lines = [HEADER, render("1", alloc)]
    lines += [render(f"1.{i}", cells) for i, cells in enumerate(steps)]
    jobs = list(SacctReader(lines))
    assert len(jobs) == 1
    job = jobs[0]
    for nn, el, mx, av in [alloc] + steps:
        assert job.nnodes >= nn
        assert job.elapsed_s >= el
        assert job.max_rss_bytes >= mx * KiB
        assert job.ave_rss_bytes >= av * KiB
    assert job.steps_folded == len(steps)
    assert job.rows_folded == len(steps) + 1
    assert job.footprint_bytes >= job.max_rss_bytes


# -- conservation -------------------------------------------------------------

#: One job group: (state, n_steps, elapsed, corrupt_row_after?).
job_shape = st.tuples(
    st.sampled_from(["COMPLETED", "CANCELLED by 1000", "RUNNING", "FAILED", "TIMEOUT"]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=5000),
    st.booleans(),
)


@given(shapes=st.lists(job_shape, min_size=0, max_size=12))
def test_every_row_is_folded_or_skipped(shapes):
    lines = [HEADER]
    data_rows = 0
    for index, (state, n_steps, elapsed, corrupt_after) in enumerate(shapes):
        job_id = str(1000 + index)
        running = state == "RUNNING"
        start = "Unknown" if elapsed == 0 else "2024-01-01T00:01:00"
        end = "Unknown" if running or elapsed == 0 else "2024-01-01T02:00:00"
        for step in [""] + [f".{i}" for i in range(n_steps)]:
            lines.append(
                f"{job_id}{step}|{state}|2|{elapsed}|1024K|512K|"
                f"2024-01-01T00:00:00|{start}|{end}\n"
            )
            data_rows += 1
        if corrupt_after:
            lines.append("corrupted|row\n")
            data_rows += 1
    report = IngestReport()
    jobs = list(SacctReader(lines, report=report))
    assert report.rows_read == data_rows
    assert report.conserved
    assert report.rows_in_yielded_jobs + report.rows_skipped == data_rows
    assert report.jobs_yielded == len(jobs)
    # Yielded jobs are exactly the replayable shapes (corrupt rows between
    # groups never split or swallow a neighbouring job).
    replayable = sum(
        1 for state, _, elapsed, _ in shapes
        if state not in ("RUNNING",) and elapsed > 0
    )
    assert len(jobs) == replayable


# -- the one-pass fold against the per-field fold --------------------------------

#: Cell values per column: NaN and infinite elapsed, null and malformed
#: timestamps, and cells that make a row malformed.
STATE_CELLS = ["COMPLETED", "CANCELLED by 1000", "RUNNING", "PENDING", "FAILED", "TIMEOUT", ""]
NODE_CELLS = ["", "0", "1", "2", "16", "x"]
ELAPSED_CELLS = ["", "0", "60", "3600", "42.5", "nan", "NaN", "inf", "1-00:00:01", "05:30", "bad"]
RSS_CELLS = ["", "0", "512K", "1024K", "2G"]
STAMP_CELLS = [
    "2024-01-01T00:00:00",
    "2024-01-01T00:01:00",
    "2024-01-01T02:00:00",
    "2023-12-31T23:59:59",
    "",
    "Unknown",
    "None",
]


@st.composite
def fold_traces(draw):
    """Groups of one job's rows in any order (a step before its allocation
    row, no allocation row, or two), with stray rows between them."""
    lines = [HEADER]
    for index in range(draw(st.integers(0, 8))):
        job_id = str(2000 + index)
        steps = [""] * draw(st.sampled_from([0, 1, 1, 1, 2]))
        steps += draw(st.lists(st.sampled_from([".batch", ".extern", ".0", ".1"]), max_size=4))
        for step in draw(st.permutations(steps)):
            cells = [
                job_id + step,
                draw(st.sampled_from(STATE_CELLS)),
                draw(st.sampled_from(NODE_CELLS)),
                draw(st.sampled_from(ELAPSED_CELLS)),
                draw(st.sampled_from(RSS_CELLS)),
                draw(st.sampled_from(RSS_CELLS)),
                *(draw(st.sampled_from(STAMP_CELLS)) for _ in range(3)),
            ]
            lines.append("|".join(cells) + "\n")
        stray = draw(st.integers(0, 9))
        if stray == 0:
            lines.append("broken|row\n")
        elif stray == 1:
            lines.append("|COMPLETED|1|60|1K|1K|2024-01-01T00:00:00||\n")
    return lines


def _same_fold(lines, window=None):
    """Both folds yield the same jobs, bit for bit, and the same report."""
    runs = []
    for reader in (SacctReader, oracles.ComprehensionFoldReader):
        report = IngestReport()
        with mock.patch.object(slurm, "SacctReader", reader):
            jobs = list(read_sacct(lines, window=window, report=report))
        # repr keeps NaN and every float bit comparable.
        runs.append(([repr(job) for job in jobs], report.summary(), report.examples))
    assert runs[0] == runs[1]
    return runs[0][1]


@given(lines=fold_traces(), window=st.sampled_from([None, (0.0, 30.0), (60.0, None)]))
def test_one_pass_fold_equals_the_per_field_fold(lines, window):
    _same_fold(lines, window)


def test_one_pass_fold_equals_the_per_field_fold_on_every_skip_reason():
    stamps = "2024-01-01T00:00:00|2024-01-01T00:01:00|2024-01-01T02:00:00"
    lines = [
        HEADER,
        f"1.batch|COMPLETED|1|nan|2G|1G|{stamps}\n",  # a step before its allocation
        f"1|COMPLETED|4|3600|||{stamps}\n",
        f"2|COMPLETED|4|nan|1K|1K|{stamps}\n",  # a NaN elapsed first keeps it
        f"2.0|COMPLETED|2|7200|1K|1K|{stamps}\n",
        f"3|COMPLETED|1|60|1K|1K|Unknown|Unknown|\n",  # no-submit-time
        f"3.batch|COMPLETED|1|60|1K|1K|||\n",
        f"4|RUNNING|1|60|1K|1K|{stamps}\n",  # unfinished
        f"5|CANCELLED by 7|1|0|||2024-01-01T00:00:00|Unknown|Unknown\n",  # cancelled-no-runtime
        f"6|COMPLETED|1|0|1K|1K|{stamps}\n",  # zero-elapsed
        f"7|COMPLETED|x|60|1K|1K|{stamps}\n",  # malformed-field
        "8|COMPLETED\n",  # column-count
        f"|COMPLETED|1|60|1K|1K|{stamps}\n",  # empty-job-id
        f"9.extern|COMPLETED|2|30|1K|1K|2024-01-01T00:00:30|Unknown|\n",  # no allocation row
        "10|COMPLETED|1|60|1K|1K|2024-01-02T00:00:00||\n",  # outside the window
        f"11|PENDING|1|60|1K|1K|{stamps}\n",  # the first allocation row names the state
        f"11|COMPLETED|1|60|1K|1K|{stamps}\n",
    ]
    summary = _same_fold(lines, window=(0.0, 3600.0))
    assert set(summary["skipped_by_reason"]) == {
        "cancelled-no-runtime",
        "column-count",
        "empty-job-id",
        "malformed-field",
        "no-submit-time",
        "outside-window",
        "unfinished",
        "zero-elapsed",
    }
    assert summary["jobs_yielded"] == 3
