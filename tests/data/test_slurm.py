"""Tests for the streaming sacct ingester (:mod:`repro.data.slurm`).

Covers the tentpole contract: field parsers, step folding, per-reason skip
accounting with the conservation invariant, limit/window semantics, the
structural :class:`TraceError` on broken headers, telemetry counters, the
synthetic generator's determinism, and — via a counting line source — that
the reader is genuinely streaming (peak buffered rows stays O(one job)).
"""

from __future__ import annotations

import pytest

from repro.config.errors import ConfigurationError, TraceError
from repro.config.units import GiB, KiB, MiB
from repro.data.slurm import (
    IngestReport,
    SacctReader,
    TraceJob,
    parse_elapsed,
    parse_timestamp,
    read_sacct,
    synthesize_sacct_lines,
    write_synthetic_trace,
)

HEADER = "JobIDRaw|JobName|State|NNodes|ElapsedRaw|MaxRSS|AveRSS|Submit|Start|End\n"


def row(job_id, state="COMPLETED", nnodes=1, elapsed="100", max_rss="1024K",
        ave_rss="512K", submit="2024-01-01T00:00:00", start="2024-01-01T00:01:00",
        end="2024-01-01T00:02:40"):
    return (
        f"{job_id}|name|{state}|{nnodes}|{elapsed}|{max_rss}|{ave_rss}|"
        f"{submit}|{start}|{end}\n"
    )


class TestParseElapsed:
    def test_day_form(self):
        assert parse_elapsed("1-02:03:04") == 93784.0

    def test_hms_and_ms(self):
        assert parse_elapsed("02:03:04") == 7384.0
        assert parse_elapsed("05:30") == 330.0
        assert parse_elapsed("00:00:00.500") == 0.5

    def test_bare_seconds(self):
        assert parse_elapsed("42") == 42.0
        assert parse_elapsed("42.5") == 42.5

    @pytest.mark.parametrize("bad", ["", "abc", "1:2:3:4", "x-00:00:01", "-5"])
    def test_garbage_raises_configuration_error(self, bad):
        with pytest.raises(ConfigurationError):
            parse_elapsed(bad)


class TestParseTimestamp:
    def test_iso(self):
        a = parse_timestamp("2024-01-01T00:00:00")
        b = parse_timestamp("2024-01-01T01:00:00")
        assert b - a == 3600.0

    @pytest.mark.parametrize("null", ["", "Unknown", "None", "N/A"])
    def test_null_markers_return_none(self, null):
        assert parse_timestamp(null) is None

    def test_garbage_raises(self):
        with pytest.raises(ConfigurationError):
            parse_timestamp("yesterday")

    # Python 3.10's datetime.fromisoformat rejects the first two forms and
    # 3.11+ accepts all three; the grammar is the same on every version.
    @pytest.mark.parametrize(
        "text, same_as",
        [
            ("2024-03-01T00:05:00Z", "2024-03-01T00:05:00"),
            ("2024-03-01T00:05:00.250Z", "2024-03-01T00:05:00.250"),
            ("20240301T000500", None),
            ("20240301", None),
            ("2024-03-01T00:05:00.25", None),
        ],
    )
    def test_one_grammar_on_every_python(self, text, same_as):
        if same_as is None:
            with pytest.raises(ConfigurationError, match="malformed timestamp"):
                parse_timestamp(text)
        else:
            assert parse_timestamp(text) == parse_timestamp(same_as)

    @pytest.mark.parametrize(
        "submit, skipped",
        [("2024-01-01T00:00:00Z", False), ("20240101T000000", True)],
    )
    def test_one_grammar_for_every_row(self, submit, skipped):
        report = IngestReport()
        lines = [HEADER, row("1", submit=submit), row("1.0", submit=submit)]
        jobs = list(SacctReader(lines, report=report))
        if skipped:
            assert jobs == []
            assert report.skipped_by_reason == {"malformed-field": 2}
            assert "malformed timestamp" in report.examples[0].text
        else:
            assert [job.submit_unix for job in jobs] == [parse_timestamp("2024-01-01T00:00:00")]

    def test_a_skipped_rows_example_keeps_its_whole_reason(self):
        # The example is cut at 120 characters; the reason comes first, so
        # the cut takes only the quoted row.
        report = IngestReport()
        bad = row("1", submit="20240101T000000")
        assert list(SacctReader([HEADER, bad], report=report)) == []
        (example,) = report.examples
        reason = "malformed timestamp '20240101T000000': expected ISO like 2024-03-01T00:05:00"
        assert example.text == f"{reason}: {bad!r}"[:120]
        assert len(example.text) == 120

    def test_a_negative_node_count_is_named_before_the_row(self):
        report = IngestReport()
        bad = row("1", nnodes=-2)
        assert list(SacctReader([HEADER, bad], report=report)) == []
        assert report.examples[0].text == f"negative NNodes: {bad!r}"[:120]


class TestFolding:
    def test_steps_fold_into_allocation(self):
        lines = [
            HEADER,
            row("1", nnodes=4, max_rss="", ave_rss=""),   # allocation: no RSS
            row("1.batch", nnodes=1, max_rss="2048K", ave_rss="1024K"),
            row("1.extern", nnodes=4, max_rss="1024K", ave_rss="512K"),
            row("1.0", nnodes=4, max_rss="3072K", ave_rss="2048K", elapsed="50"),
        ]
        jobs = list(SacctReader(lines))
        assert len(jobs) == 1
        job = jobs[0]
        assert job.job_id == "1"
        assert job.nnodes == 4
        assert job.elapsed_s == 100.0
        assert job.max_rss_bytes == 3072 * KiB  # max over steps
        assert job.ave_rss_bytes == 2048 * KiB
        assert job.steps_folded == 3
        assert job.rows_folded == 4
        assert job.footprint_bytes == 3072 * KiB * 4

    def test_rss_suffixes_are_binary(self):
        lines = [HEADER, row("1", max_rss="2G", ave_rss="512M")]
        job = next(iter(SacctReader(lines)))
        assert job.max_rss_bytes == 2 * GiB
        assert job.ave_rss_bytes == 512 * MiB

    def test_unsuffixed_rss_is_kib(self):
        lines = [HEADER, row("1", max_rss="4056", ave_rss="")]
        job = next(iter(SacctReader(lines)))
        assert job.max_rss_bytes == 4056 * KiB

    def test_timestamp_envelope(self):
        lines = [
            HEADER,
            row("1", submit="2024-01-01T00:00:10", start="2024-01-01T00:01:00",
                end="2024-01-01T00:02:00"),
            row("1.batch", submit="2024-01-01T00:00:05", start="2024-01-01T00:00:50",
                end="2024-01-01T00:03:00"),
        ]
        job = next(iter(SacctReader(lines)))
        assert job.submit_unix == parse_timestamp("2024-01-01T00:00:05")
        assert job.start_unix == parse_timestamp("2024-01-01T00:00:50")
        assert job.end_unix == parse_timestamp("2024-01-01T00:03:00")
        assert job.wait_s == 45.0

    def test_reappearing_job_id_starts_new_group(self):
        lines = [HEADER, row("1"), row("2"), row("1")]
        jobs = list(SacctReader(lines))
        assert [j.job_id for j in jobs] == ["1", "2", "1"]

    def test_orphan_step_group_folds_without_allocation_row(self):
        lines = [HEADER, row("7.batch", max_rss="1024K")]
        jobs = list(SacctReader(lines))
        assert len(jobs) == 1
        assert jobs[0].job_id == "7"
        assert jobs[0].rows_folded == 1
        assert jobs[0].steps_folded == 1


class TestSkipsAndConservation:
    def test_every_skip_reason_is_counted(self):
        lines = [
            HEADER,
            row("1"),                                          # fine
            "too|few|columns\n",                               # column-count
            row("2", max_rss="12XQ"),                          # malformed-field
            row("3", state="RUNNING", end="Unknown"),          # unfinished
            row("4", state="CANCELLED by 1000", elapsed="0",
                start="Unknown", end="Unknown", max_rss=""),   # cancelled-no-runtime
            row("5", elapsed="0"),                             # zero-elapsed
            row("6", submit="Unknown"),                        # no-submit-time
            row("", max_rss=""),                               # empty-job-id
        ]
        report = IngestReport()
        jobs = list(SacctReader(lines, report=report))
        assert [j.job_id for j in jobs] == ["1"]
        assert report.skipped_by_reason == {
            "column-count": 1,
            "malformed-field": 1,
            "unfinished": 1,
            "cancelled-no-runtime": 1,
            "zero-elapsed": 1,
            "no-submit-time": 1,
            "empty-job-id": 1,
        }
        assert report.conserved
        assert report.rows_read == 8
        assert report.rows_in_yielded_jobs == 1

    def test_cancelled_job_that_ran_is_replayable(self):
        lines = [HEADER, row("1", state="CANCELLED by 1000", elapsed="500")]
        jobs = list(SacctReader(lines))
        assert len(jobs) == 1
        assert jobs[0].state == "CANCELLED"

    def test_group_skip_covers_all_rows_of_the_group(self):
        lines = [
            HEADER,
            row("1", state="RUNNING", end="Unknown"),
            row("1.batch", state="RUNNING", end="Unknown"),
            row("1.extern", state="RUNNING", end="Unknown"),
        ]
        report = IngestReport()
        assert list(SacctReader(lines, report=report)) == []
        assert report.skipped_by_reason == {"unfinished": 3}
        assert report.conserved

    def test_examples_are_capped(self):
        lines = [HEADER] + ["bad|row\n"] * 50
        report = IngestReport()
        list(SacctReader(lines, report=report))
        assert report.skipped_by_reason["column-count"] == 50
        assert len(report.examples) == report.max_examples

    def test_summary_shape(self):
        report = IngestReport()
        list(SacctReader([HEADER, row("1")], report=report))
        summary = report.summary()
        assert summary == {
            "rows_read": 1,
            "jobs_yielded": 1,
            "steps_folded": 0,
            "rows_skipped": 0,
            "skipped_by_reason": {},
            "conserved": True,
        }


class TestStructuralErrors:
    def test_missing_required_column_raises_trace_error(self):
        lines = ["JobIDRaw|State|NNodes\n", "1|COMPLETED|1\n"]
        with pytest.raises(TraceError, match="missing required column"):
            list(SacctReader(lines))

    def test_empty_dump_raises_trace_error(self):
        with pytest.raises(TraceError, match="no header"):
            list(SacctReader([]))

    def test_header_fallbacks_jobid_and_elapsed(self):
        lines = [
            "JobID|State|NNodes|Elapsed|MaxRSS|Submit\n",
            "9|COMPLETED|2|01:00:00|1024K|2024-01-01T00:00:00\n",
        ]
        jobs = list(SacctReader(lines))
        assert jobs[0].job_id == "9"
        assert jobs[0].elapsed_s == 3600.0

    def test_extra_columns_are_ignored(self):
        lines = [
            HEADER.rstrip("\n") + "|Partition|Account\n",
            row("1").rstrip("\n") + "|debug|proj\n",
        ]
        assert len(list(SacctReader(lines))) == 1


class TestReadSacct:
    def test_limit_stops_and_counts_exactly(self):
        lines = [HEADER] + [row(str(i)) for i in range(10)]
        report = IngestReport()
        jobs = list(read_sacct(lines, limit=3, report=report))
        assert len(jobs) == 3
        assert report.jobs_yielded == 3

    def test_window_filters_and_conserves(self):
        lines = [
            HEADER,
            row("1", submit="2024-01-01T00:00:00"),
            row("2", submit="2024-01-01T01:00:00"),
            row("3", submit="2024-01-01T02:00:00"),
        ]
        report = IngestReport()
        jobs = list(read_sacct(lines, window=(0, 3600), report=report))
        assert [j.job_id for j in jobs] == ["1", "2"]
        assert report.skipped_by_reason == {"outside-window": 1}
        assert report.conserved

    def test_open_window_bounds(self):
        lines = [
            HEADER,
            row("1", submit="2024-01-01T00:00:00"),
            row("2", submit="2024-01-01T01:00:00"),
        ]
        late = list(read_sacct(lines, window=(1800, None)))
        assert [j.job_id for j in late] == ["2"]

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "trace.psv"
        path.write_text(HEADER + row("1"), encoding="utf-8")
        jobs = list(read_sacct(path))
        assert jobs[0].job_id == "1"


class TestStreaming:
    def test_reader_never_buffers_more_than_one_job(self):
        """Peak concurrently-buffered rows is O(steps of one job), not O(trace)."""
        n_jobs, steps_per_job = 200, 5

        def lines():
            yield HEADER
            for i in range(n_jobs):
                yield row(str(i), nnodes=2, max_rss="", ave_rss="")
                for s in range(steps_per_job):
                    yield row(f"{i}.{s}", max_rss="1024K")

        reader = SacctReader(lines())
        peak = 0
        original_fold = reader._fold

        def spying_fold(group):
            nonlocal peak
            peak = max(peak, len(group))
            return original_fold(group)

        reader._fold = spying_fold
        jobs = sum(1 for _ in reader)
        assert jobs == n_jobs
        assert peak == steps_per_job + 1  # one allocation + its steps, never more

    def test_timestamp_memo_holds_one_job(self):
        """Each job's distinct timestamp strings are parsed once and dropped
        with the job, so the memo is O(one job) like the row buffer."""
        n_jobs, steps_per_job = 40, 5

        def lines():
            yield HEADER
            for i in range(n_jobs):
                for s in range(steps_per_job + 1):
                    job_id = f"{i}.{s}" if s else str(i)
                    hour = f"2024-01-{1 + i % 28:02d}T{s:02d}"
                    yield row(job_id, submit=f"{hour}:00:00", start=f"{hour}:00:01",
                              end=f"{hour}:00:02")

        reader = SacctReader(lines())
        peak = 0
        parse_row = reader._parse_row

        def spying_parse(line_no, line):
            nonlocal peak
            parsed = parse_row(line_no, line)
            peak = max(peak, len(reader._stamps))
            return parsed

        reader._parse_row = spying_parse
        assert sum(1 for _ in reader) == n_jobs
        assert peak == 3 * (steps_per_job + 1)  # three cells per row of one job

    def test_consumes_a_generator_without_rewinding(self):
        consumed = iter([HEADER, row("1"), row("2")])
        assert len(list(SacctReader(consumed))) == 2


class TestTelemetryCounters:
    def test_counters_track_ingestion(self):
        from repro import telemetry

        telemetry.enable(reset=True)
        try:
            lines = [HEADER, row("1"), row("1.batch"), "bad|row\n"]
            report = IngestReport()
            list(SacctReader(lines, report=report))
            registry = telemetry.registry()
            assert registry.counter("data.slurm.rows_read").value == 3
            assert registry.counter("data.slurm.rows_skipped").value == 1
            assert registry.counter("data.slurm.steps_folded").value == 1
            assert registry.counter("data.slurm.jobs_yielded").value == 1
        finally:
            telemetry.disable()


class TestSyntheticGenerator:
    def test_deterministic_in_seed(self):
        a = list(synthesize_sacct_lines(50, seed=3))
        b = list(synthesize_sacct_lines(50, seed=3))
        c = list(synthesize_sacct_lines(50, seed=4))
        assert a == b
        assert a != c

    def test_synthetic_trace_ingests_with_explained_skips_only(self):
        report = IngestReport()
        jobs = list(read_sacct(synthesize_sacct_lines(100, seed=1), report=report))
        assert jobs
        assert report.conserved
        # Every skip must be one of the two kinds the generator plants.
        assert set(report.skipped_by_reason) <= {"cancelled-no-runtime", "column-count"}
        assert all(isinstance(j, TraceJob) for j in jobs)
        assert all(j.elapsed_s > 0 and j.max_rss_bytes > 0 for j in jobs)

    def test_write_synthetic_trace_round_trips(self, tmp_path):
        path = tmp_path / "synthetic.psv"
        n_lines = write_synthetic_trace(path, 30, seed=2)
        assert n_lines == len(path.read_text(encoding="utf-8").splitlines())
        report = IngestReport()
        assert list(read_sacct(path, report=report))
        assert report.conserved
