"""Every method the end-to-end benchmark wraps is defined where it looks.

``perfbench/layers.py`` installs its timers by replacing
``vars(owner)[name]`` for each ``(owner, name)`` that ``layer_targets()`` and
``lap_targets()`` list, so a method that is removed, renamed or only
inherited makes every traced benchmark sample fail with ``KeyError``.  This
test catches that in the test suite instead.  It loads ``layers.py`` from
its file and changes nothing under ``perfbench/``.

A traced sample also fails when a wrapped name is bound only after the
timers are installed (a lazy import binds the original), so the last test
runs one tiny traced sample of every benchmark workload, each in a fresh
interpreter, as the benchmark does.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
LAYERS_PY = REPO / "perfbench" / "layers.py"
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(targets) -> list[str]:
    return [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{name}"
        for owner, name in targets
        if name not in vars(owner)
    ]


def test_every_layer_target_is_defined_on_its_owner():
    targets = [t for group in _layers().layer_targets().values() for t in group]
    assert targets
    assert _missing(targets) == []


def test_every_lap_target_is_defined_on_its_owner():
    targets = _layers().lap_targets()
    assert targets
    assert _missing(targets) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_tiny_traced_sample_reports_no_error(workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "perfbench" / "child.py"),
            "--workload", workload, "--seed", "1", "--size", "tiny", "--traced", "1",
            "--cpu", str(min(os.sched_getaffinity(0))),
            "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
        ],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in sample, sample["error"]
    assert sample["failed"] == 0 and sample["attempted"] > 0
