"""Tests for the bench JSON schema and the perf harness (regression gate)."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry.benchjson import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    REQUIRED_GROUPS,
    validate_bench,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _bench_perf():
    """``tools/bench_perf.py`` loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_perf", REPO_ROOT / "tools" / "bench_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: A minimal document satisfying every schema rule.
VALID_DOC = {
    "schema": BENCH_SCHEMA,
    "version": BENCH_SCHEMA_VERSION,
    "created_unix": 1700000000.0,
    "quick": True,
    "python": "3.12.0",
    "benchmarks": [
        {
            "name": f"{group}.case",
            "group": group,
            "config": {},
            "repeats": 3,
            "mean_s": 0.01,
            "min_s": 0.009,
            "throughput_per_s": 100.0,
        }
        for group in REQUIRED_GROUPS
    ],
    "telemetry_overhead": {
        "noop_span_ns": 100.0,
        "noop_counter_ns": 80.0,
        "events": 1000,
        "hook_calls": 1200,
        "disabled_wall_s": 0.5,
        "enabled_wall_s": 0.6,
        "enabled_overhead_pct": 20.0,
        "disabled_overhead_pct": 0.02,
    },
}


class TestValidateBench:
    def test_valid_document_passes(self):
        assert validate_bench(copy.deepcopy(VALID_DOC)) == []

    def test_wrong_schema_or_version(self):
        doc = copy.deepcopy(VALID_DOC)
        doc["schema"] = "other"
        assert validate_bench(doc)
        doc = copy.deepcopy(VALID_DOC)
        doc["version"] = 99
        assert validate_bench(doc)

    def test_missing_group_reported(self):
        doc = copy.deepcopy(VALID_DOC)
        doc["benchmarks"] = [b for b in doc["benchmarks"] if b["group"] != "cluster_events"]
        errors = validate_bench(doc)
        assert any("cluster_events" in e for e in errors)

    def test_missing_bench_key_reported(self):
        doc = copy.deepcopy(VALID_DOC)
        del doc["benchmarks"][0]["mean_s"]
        assert validate_bench(doc)

    def test_negative_timing_reported(self):
        doc = copy.deepcopy(VALID_DOC)
        doc["benchmarks"][0]["mean_s"] = -1.0
        assert validate_bench(doc)

    def test_incomplete_overhead_reported(self):
        doc = copy.deepcopy(VALID_DOC)
        del doc["telemetry_overhead"]["hook_calls"]
        assert validate_bench(doc)

    def test_non_dict_rejected(self):
        assert validate_bench([])
        assert validate_bench({"schema": BENCH_SCHEMA})


class TestCommittedDocument:
    def test_bench_cosim_json_at_repo_root_is_valid(self):
        path = REPO_ROOT / "BENCH_cosim.json"
        assert path.exists(), "BENCH_cosim.json must be committed at the repo root"
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert validate_bench(data) == []
        overhead = data["telemetry_overhead"]
        # The acceptance bound the instrumentation must keep honouring.
        assert overhead["disabled_overhead_pct"] < 2.0


class TestHookCount:
    """``hook_calls`` counts the telemetry hooks a run executes."""

    def test_count_equals_hook_invocations(self):
        bench = _bench_perf()
        originals = [vars(owner)[name] for owner, name in bench.HOOK_METHODS]

        def run():
            with telemetry.isolated(True) as registry:
                counter = telemetry.metrics().counter("c")
                counter.inc()
                counter.inc(41)
                telemetry.metrics().gauge("g").set(2.0)
                telemetry.metrics().histogram("h").observe(1.0)
                telemetry.metrics().timeseries("t", ["x"]).append(0.0, x=1.0)
                with telemetry.trace_span("outer"):
                    with telemetry.trace_span("inner"):
                        pass
            return registry

        registry, hooks = bench.count_hook_calls(run)
        assert hooks == 7
        # Calls, not counter values.
        assert registry.counter("c").value == 42
        assert [vars(owner)[name] for owner, name in bench.HOOK_METHODS] == originals

    def test_disabled_instruments_are_not_hooks_that_record(self):
        bench = _bench_perf()

        def run():
            with telemetry.isolated(False):
                telemetry.metrics().counter("c").inc()
                with telemetry.trace_span("s"):
                    pass

        assert bench.count_hook_calls(run)[1] == 0

    def test_scheduler_publishes_its_counters_once_per_run(self):
        """One span and seven counter increments, whatever the job count."""
        bench = _bench_perf()
        for n_jobs in (12, 120):
            profiles, arrivals = bench._synthetic_jobs(n_jobs)

            def run():
                with telemetry.isolated(True) as registry:
                    bench._run_cluster(2, 4, profiles, arrivals)
                return registry

            registry, hooks = bench.count_hook_calls(run)
            assert registry.counter("scheduler.jobs.finished").value == n_jobs
            assert hooks == 8


class TestTelemetryOverhead:
    def test_modes_alternate_and_hooks_are_counted_in_an_untimed_run(self, monkeypatch):
        """The counting wrappers never slow a timed run, and both modes share the host's phases."""
        bench = _bench_perf()
        originals = {(owner, name): vars(owner)[name] for owner, name in bench.HOOK_METHODS}
        runs = []
        real_run = bench._run_cluster

        def spy(*args):
            counting = any(vars(owner)[name] is not method for (owner, name), method in originals.items())
            runs.append((telemetry.enabled(), counting))
            return real_run(*args)

        monkeypatch.setattr(bench, "_run_cluster", spy)
        try:
            row, overhead = bench.bench_cluster_events(quick=True)
        finally:
            telemetry.disable()
        assert bench.OVERHEAD_PAIRS >= 5
        assert runs == [(True, True)] + [(False, False), (True, False)] * bench.OVERHEAD_PAIRS
        assert row["repeats"] == bench.OVERHEAD_PAIRS
        assert overhead["hook_calls"] == 8
        assert row["min_s"] == overhead["disabled_wall_s"]
        ratio = overhead["enabled_wall_s"] / overhead["disabled_wall_s"]
        assert overhead["enabled_overhead_pct"] == pytest.approx((ratio - 1.0) * 100.0)


class TestHarnessQuickRun:
    def test_quick_run_emits_valid_document(self, tmp_path):
        out = tmp_path / "bench_quick.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "bench_perf.py"),
             "--quick", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        with open(out, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert validate_bench(data) == []
        assert data["quick"] is True
        groups = {b["group"] for b in data["benchmarks"]}
        assert groups == set(REQUIRED_GROUPS)

    def test_check_mode_validates_existing_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(VALID_DOC))
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "bench_perf.py"),
             "--check", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "valid" in result.stdout

    def test_check_mode_fails_on_invalid_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema": "nope"}))
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "bench_perf.py"),
             "--check", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
