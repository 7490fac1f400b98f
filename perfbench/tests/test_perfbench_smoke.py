"""Tiny-size runs of all four workloads through the benchmark's own entry point."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from flows import FLOWS  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_all_workloads_tiny_pass_their_checks_in_both_modes():
    proc = _run(["--workload", "all", "--seconds", "1", "--size", "tiny"], REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}.{name}" for w in FLOWS for name in {**END_TO_END, **PER_LAYER}}
    assert set(result["metrics"]) == expected
    for workload in FLOWS:
        for name in END_TO_END:
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0


def test_single_workload_prints_only_its_mode_metrics():
    for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = _run(
            ["--workload", "profile_levels", "--seed", "3", "--seconds", "1",
             "--size", "tiny", "--trace", trace],
            REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result["metrics"]) == set(names)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "trace_replay", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
