"""Tests for trace replay: TraceReplayStudy, its CLI path, and the fixture.

The committed fixture (``tests/data/fixtures/sacct_synthetic.txt``, a ~1k-row
anonymized synthetic ``sacct -P`` dump) must replay end to end through
``scheduling --trace`` with a conserved ingest report and no unexplained
skips — the acceptance scenario of the ingestion tentpole, and what CI's
trace-replay smoke step runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.casestudies.trace_replay import (
    MIN_RUNTIME_S,
    TRACE_SCALES,
    TraceJobMapper,
    TraceReplayStudy,
    trace_workloads,
)
from repro.cli import main
from repro.config.errors import SchedulingError
from repro.config.units import GiB, bytes_to_gb
from repro.data.slurm import TraceJob, synthesize_sacct_lines
from repro.fabric import FaultEvent, FaultSchedule
from repro.workloads.registry import workload_names

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixtures" / "sacct_synthetic.txt"

HEADER = "JobIDRaw|State|NNodes|ElapsedRaw|MaxRSS|Submit|Start|End\n"


def trace_job(**overrides):
    base = dict(
        job_id="1",
        state="COMPLETED",
        nnodes=4,
        elapsed_s=600.0,
        max_rss_bytes=2 * GiB,
        ave_rss_bytes=GiB,
        submit_unix=0.0,
        start_unix=60.0,
        end_unix=660.0,
    )
    base.update(overrides)
    return TraceJob(**base)


class TestTraceJobMapper:
    def test_pool_gb_is_decimal_gb_of_the_remote_share(self):
        mapper = TraceJobMapper(local_fraction=0.25)
        job = trace_job()
        profile = mapper.profile_of(job)
        assert profile.pool_gb == pytest.approx(
            bytes_to_gb(job.footprint_bytes * 0.75)
        )
        assert profile.baseline_runtime == 600.0
        # BFS by the CRC-32 of seed 0 and job "1"; 8.6 GB is nearest its 4x input.
        assert profile.workload == "BFS@4"

    def test_short_jobs_are_clamped_not_dropped(self):
        profile = TraceJobMapper().profile_of(trace_job(elapsed_s=0.25))
        assert profile.baseline_runtime == MIN_RUNTIME_S == 1.0

    def test_application_is_a_stable_hash_of_seed_and_job_id(self):
        mapper = TraceJobMapper()
        job = trace_job()
        # CRC-32, not the salted built-in hash: pinned across processes.
        assert [mapper.workload_of(job, seed) for seed in range(4)] == [
            "BFS@4", "SuperLU@4", "BFS@4", "HPL@2",
        ]
        apps = {mapper.workload_of(trace_job(job_id=str(i))).split("@")[0] for i in range(60)}
        assert apps == set(workload_names())

    def test_scale_has_the_nearest_footprint(self):
        mapper, workloads = TraceJobMapper(), trace_workloads()
        for gib_per_node in (0.5, 1.5, 3.0, 40.0):
            job = trace_job(nnodes=1, max_rss_bytes=int(gib_per_node * GiB))
            app = mapper.workload_of(job).split("@")[0]
            nearest = min(
                (abs(workloads[f"{app}@{s}"].footprint_bytes - job.footprint_bytes), s)
                for s in TRACE_SCALES
            )[1]
            assert mapper.workload_of(job) == f"{app}@{nearest}"

    def test_workloads_are_built_once_per_process(self):
        workloads = trace_workloads()
        assert len(workloads) == len(workload_names()) * len(TRACE_SCALES)
        assert trace_workloads() is workloads

    def test_bad_parameters_rejected(self):
        with pytest.raises(SchedulingError):
            TraceJobMapper(local_fraction=1.5)


class TestTraceReplayStudy:
    def test_fixture_replays_end_to_end(self):
        result = TraceReplayStudy(n_racks=4, nodes_per_rack=16, seed=0).run(FIXTURE)
        summary = result.summary()
        assert summary["jobs_replayed"] > 200
        assert summary["jobs_finished"] == summary["jobs_replayed"]
        assert summary["unplaceable_jobs"] == 0
        assert summary["ingest"]["conserved"] is True
        # Zero *unexplained* skips: every skip carries a known reason.
        assert set(summary["ingest"]["skipped_by_reason"]) <= {
            "cancelled-no-runtime",
            "column-count",
        }
        assert summary["makespan_s"] > 0
        assert summary["peak_pool_demand_gb"] > 0

    def test_fixture_replay_outcome_is_pinned(self):
        """Golden outcome of the fixture, a guard for event-loop changes."""
        summary = TraceReplayStudy(n_racks=4, nodes_per_rack=16, seed=0).run(FIXTURE).summary()
        assert summary["jobs_finished"] == 251
        assert summary["makespan_s"] == 39176.0
        assert summary["mean_wait_s"] == pytest.approx(976.9960159362549, rel=1e-12)

    def test_deterministic_in_seed(self):
        lines = list(synthesize_sacct_lines(40, seed=5))
        a = TraceReplayStudy(seed=3).run(lines).summary()
        b = TraceReplayStudy(seed=3).run(lines).summary()
        assert a == b

    def test_oversized_jobs_counted_unplaceable(self):
        lines = [
            HEADER,
            "1|COMPLETED|64|3600|100G|2024-01-01T00:00:00|2024-01-01T00:01:00|2024-01-01T01:01:00\n",
            "2|COMPLETED|1|3600|1024K|2024-01-01T00:10:00|2024-01-01T00:11:00|2024-01-01T01:11:00\n",
        ]
        result = TraceReplayStudy(pool_capacity_gb=64.0).run(lines)
        assert result.unplaceable_jobs == 1
        assert result.jobs_replayed == 1

    def test_arrivals_follow_submit_offsets(self):
        lines = [
            HEADER,
            "1|COMPLETED|1|60|1024K|2024-01-01T00:00:00|2024-01-01T00:00:10|2024-01-01T00:01:10\n",
            "2|COMPLETED|1|60|1024K|2024-01-01T01:00:00|2024-01-01T01:00:10|2024-01-01T01:01:10\n",
        ]
        result = TraceReplayStudy().run(lines)
        assert result.trace_span_s == 3600.0
        # The second job cannot have finished before it arrived.
        assert result.outcome.makespan >= 3600.0

    def test_empty_replay_raises_with_report(self):
        lines = [HEADER, "1|RUNNING|1|0|1024K|2024-01-01T00:00:00|Unknown|Unknown\n"]
        with pytest.raises(SchedulingError, match="no replayable jobs"):
            TraceReplayStudy().run(lines)

    def test_a_lease_fault_follows_its_job_across_racks(self):
        # job-1 runs on rack 1 from 288 s to ~4,851 s; the revoke names rack 0.
        revoke = FaultEvent(time=1000.0, kind="lease-revoke", rack=0, tenant="job-1")
        study = CoupledSchedulingStudy(
            n_racks=2, nodes_per_rack=2, policy="pool-aware",
            fault_schedule=FaultSchedule((revoke,)),
        )
        result = study.replay(list(synthesize_sacct_lines(12, seed=3)), coupled=True)
        job = next(j for j in result.coupled.coupled.jobs if j.job_id == 1)
        assert job.assigned_rack == 1
        assert job.start_time < revoke.time < job.finish_time
        faults = result.summary()["faults"]
        assert faults["faults_injected"] == 1
        assert faults["revocations"] == 1
        assert faults["stalled_tenants"] == ["job-1"]

    def test_limit_and_window_thread_through(self):
        lines = list(synthesize_sacct_lines(40, seed=5))
        limited = TraceReplayStudy().run(lines, limit=5)
        assert limited.jobs_replayed == 5
        windowed = TraceReplayStudy().run(list(lines), window=(0.0, 900.0))
        assert windowed.jobs_replayed < limited.jobs_replayed + 40
        assert "outside-window" in windowed.ingest["skipped_by_reason"]


class TestTraceCLI:
    def run_json(self, capsys, *argv):
        assert main(["--json", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_scheduling_trace_fixture(self, capsys):
        data = self.run_json(
            capsys, "scheduling", "--trace", str(FIXTURE),
            "--racks", "4", "--nodes-per-rack", "16", "--policy", "pool-aware",
        )
        assert data["jobs_replayed"] > 200
        assert data["ingest"]["conserved"] is True

    def test_trace_limit_and_window_flags(self, capsys):
        data = self.run_json(
            capsys, "scheduling", "--trace", str(FIXTURE), "--trace-limit", "10",
        )
        assert data["jobs_replayed"] == 10
        data = self.run_json(
            capsys, "scheduling", "--trace", str(FIXTURE),
            "--trace-window", "0:3600",
        )
        assert "outside-window" in data["ingest"]["skipped_by_reason"]

    def test_trace_faults_and_overcommit_need_coupled(self, capsys):
        for extra in (["--inject", "port-kill@5:port=0"], ["--overcommit"]):
            assert main(["scheduling", "--trace", str(FIXTURE), *extra]) == 2
            assert "require --coupled" in capsys.readouterr().err

    def test_trace_composes_with_coupled_faults_and_overcommit(self, capsys):
        data = self.run_json(
            capsys, "scheduling", "--trace", str(FIXTURE), "--trace-window", "0:3600",
            "--racks", "2", "--nodes-per-rack", "8", "--policy", "pool-aware",
            "--coupled", "--overcommit",
            "--inject", "port-degrade@600:port=0,scale=0.5,duration=600",
        )
        assert data["ingest"]["conserved"] is True
        assert data["jobs_replayed"] == data["jobs_finished"] == 38
        assert data["fabric_coupled"]["jobs_finished"] == 38
        # The degrade and its scheduled restore.
        assert data["faults"]["faults_injected"] == 2
        assert data["fabric_coupled"]["mean_slowdown"] >= data["mean_slowdown"]

    def test_missing_trace_file_is_a_clean_error(self, capsys):
        assert main(["scheduling", "--trace", "/nonexistent/trace.psv"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_structural_trace_error_is_clean(self, tmp_path, capsys):
        bad = tmp_path / "bad.psv"
        bad.write_text("NotAHeader|At|All\n1|2|3\n", encoding="utf-8")
        assert main(["scheduling", "--trace", str(bad)]) == 2
        assert "trace replay failed" in capsys.readouterr().err

    def test_bad_window_spec_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scheduling", "--trace", str(FIXTURE), "--trace-window", "bogus"])
        assert exc.value.code == 2

    def test_window_end_before_start_rejected(self):
        with pytest.raises(SystemExit):
            main(["scheduling", "--trace", str(FIXTURE), "--trace-window", "100:50"])
