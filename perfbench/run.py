#!/usr/bin/env python3
"""End-to-end benchmark of the repository's user flows, with per-layer timing.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload, both modes

Each sample runs in a fresh single-threaded interpreter (``child.py``): it
imports ``repro.cli``, builds the study, times the one study call and checks
its outputs.  One stream of samples per CPU (two at most) keeps starting
samples until ``--seconds`` have passed.  ``wall_s`` sums the fastest time of
each lap of the call (see :func:`lap_wall`), ``setup_s`` is the fastest
sample's, both scaled to the reference host speed (see ``calibrate.py``);
memory is the median.
``--trace 0`` reports the end-to-end metrics of untraced samples;
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the fastest traced sample, plus the tracing overhead
(fastest traced vs fastest untraced ``wall_s``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from flows import FLOWS  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

#: Fewest samples per mode, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: Longest a sample may take, and when to stop starting samples regardless
#: of ``MIN_SAMPLES``: together they end every run within 180 s.
SAMPLE_TIMEOUT_S = 40.0
SAMPLING_LIMIT_S = 100.0
#: Sample streams run side by side, one per CPU (the reference host has two).
STREAMS = 2

CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(workload: str, seed: int, size: str, traced: bool, cpu: int) -> dict:
    """Start one sample process on ``cpu``, wait for it and parse its JSON line."""
    # Bytecode caching stays on even where the caller turned it off: the
    # warm-up sample compiles it, as any user's first call does.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(CHILD_ENV)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--traced", str(int(traced)),
        "--cpu", str(cpu),
    ]
    spawned = now()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)],
            cwd=ROOT_DIR,
            env=env,
            capture_output=True,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"sample exceeded {SAMPLE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1])
    except (IndexError, ValueError):
        sample = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode and "error" not in sample:
        sample["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return sample


def collect(workload: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    """Samples per mode (untraced, and traced when asked) for ``seconds``.

    One stream of back-to-back samples runs pinned to each of up to
    ``STREAMS`` CPUs.  Slow phases of the host come and go on each CPU
    independently, so a second stream doubles the samples and makes it far
    less likely that one slow phase covers every sample of a run.
    """
    cpus = sorted(os.sched_getaffinity(0))[:STREAMS]
    # Warm-up: compiles bytecode and fills the page cache, which users have
    # after their first call; not measured.
    run_child(workload, seed, "tiny", False, cpus[0])
    modes = (False, True) if traced else (False,)
    samples: dict = {mode: [] for mode in modes}
    lock = threading.Lock()
    start = now()
    deadline = start + seconds

    def stream(index: int, cpu: int) -> None:
        while True:
            mode = modes[index % len(modes)]
            sample = run_child(workload, seed, size, mode, cpu)
            index += 1
            with lock:
                samples[mode].append(sample)
                enough = all(len(s) >= MIN_SAMPLES for s in samples.values())
            if "error" in sample:
                return
            if (now() >= deadline and enough) or now() - start > SAMPLING_LIMIT_S:
                return

    threads = [
        threading.Thread(target=stream, args=(index, cpu))
        for index, cpu in enumerate(cpus)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def lap_wall(ok: list) -> tuple[float, int]:
    """Sum over laps of the fastest sample's time for that lap, and the lap count.

    Every sample does the same deterministic work and marks the same laps, so
    lap ``i`` is the same piece of work in each.  Slow phases of the host
    last from a fraction of a second to minutes and only ever add time; a
    piece of a few milliseconds is almost always fast in some sample, where a
    whole call of seconds seldom is.  Without matching lap counts the fastest
    whole call is the estimate (one lap).
    """
    counts = {len(s["laps"]) for s in ok}
    if len(counts) != 1:
        return min(s["wall_s"] for s in ok), 1
    fastest = None
    for s in ok:
        bounds = [0.0] + s["laps"] + [s["wall_s"]]
        pieces = [b - a for a, b in zip(bounds, bounds[1:])]
        fastest = pieces if fastest is None else list(map(min, fastest, pieces))
    return math.fsum(fastest), len(fastest)


def summarize(workload: str, samples: dict) -> dict:
    """Checks, attempted/failed counts and both metric tables of one run."""
    everything = [s for mode in samples.values() for s in mode]
    problems = []
    attempted = failed = 0
    for s in everything:
        if "error" in s:
            problems.append(s["error"])
            n = max(s.get("attempted", 0), 1)
            attempted += n
            failed += n
            continue
        attempted += s["attempted"]
        failed += s["failed"]
        problems.extend(s["problems"])
    digests = sorted({s["digest"] for s in everything if "digest" in s})
    if len(digests) > 1:
        problems.append(f"simulated statistics differ between same-seed samples: {digests}")
        failed = attempted
    ok = [s for s in samples[False] if "error" not in s]
    e2e = {}
    host = {}
    if ok:
        # Every sample does identical work, and interference from other
        # tenants of the host only ever adds time, so the fastest time of
        # each lap is the estimate of its cost (the reasoning of ``timeit``,
        # applied per lap; see ``lap_wall``).  Both times are then scaled to
        # the reference speed of the host (see ``calibrate``).
        wall, laps = lap_wall(ok)
        probe_s = min(s["probe_s"] for s in ok)
        scale = calibrate.REFERENCE_S / probe_s
        host = {
            "wall_s": wall,
            "setup_s": min(s["setup_s"] for s in ok),
            "probe_s": probe_s,
            "scale": scale,
            "laps": laps,
        }
        e2e = {
            "wall_s": wall * scale,
            "ops_per_s": (ok[0]["attempted"] - ok[0]["failed"]) / (wall * scale),
            "setup_s": host["setup_s"] * scale,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        }
    per_layer = {}
    traced_ok = [s for s in samples.get(True, []) if "error" not in s]
    if traced_ok and ok:
        chosen = min(traced_ok, key=lambda s: s["wall_s"])
        per_layer = dict(chosen["layers"])
        per_layer["telemetry.trace_overhead_pct"] = (
            chosen["wall_s"] / min(s["wall_s"] for s in ok) - 1.0
        ) * 100.0
        drift = abs(chosen["self_sum_s"] - chosen["wall_s"])
        if drift > 1e-6 * max(chosen["wall_s"], 1.0):
            problems.append(f"layer self times sum to {chosen['self_sum_s']} s, traced wall {chosen['wall_s']} s")
    return {
        "workload": workload,
        "correct": not problems and failed == 0 and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests[0] if len(digests) == 1 else None,
        "samples": {("traced" if mode else "untraced"): len(v) for mode, v in samples.items()},
        "shape": next((s["shape"] for s in everything if "shape" in s), {}),
        "sample_walls": [s["wall_s"] for s in ok],
        "host": host,
        "end_to_end": e2e,
        "per_layer": per_layer,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(summary: dict, seed: int) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    print(
        f"# {summary['workload']} seed={seed} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={_numpy_version()} "
        f"samples={summary['samples']} digest={summary['digest']}"
    )
    print("  shape: " + " ".join(f"{k}={_fmt(v)}" for k, v in summary["shape"].items()))
    walls = summary["sample_walls"]
    print("  untraced sample wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    host = summary["host"]
    if walls:
        print(
            f"  median sample wall_s: {statistics.median(walls):.6g} s, "
            f"fastest: {min(walls):.6g} s, fastest laps: {host['wall_s']:.6g} s "
            f"({host['laps']} laps)"
        )
        print(
            f"  fastest setup_s: {host['setup_s']:.6g} s, fastest probe: "
            f"{host['probe_s'] * 1e3:.4g} ms, scale to reference speed: {host['scale']:.4f}"
        )
    for name, value in summary["end_to_end"].items():
        print(f"  {name:<32} {_fmt(value):>14} {END_TO_END[name]}")
    layers = summary["per_layer"]
    ranked = sorted(
        (n for n in layers if n.endswith(".self_s")), key=lambda n: -layers[n]
    )
    for name in ranked + [n for n in PER_LAYER if n in layers and n not in ranked]:
        print(f"  {name:<32} {_fmt(layers[name]):>14} {PER_LAYER[name]}")
    print(
        f"  attempted={summary['attempted']} failed={summary['failed']} "
        f"correct={summary['correct']}"
    )
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


def result_line(summary: dict, names: dict, values: dict) -> str:
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in names.items()
                if name in values
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FLOWS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT_DIR / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT_DIR / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        samples = collect(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        summary = summarize(args.workload, samples)
        report(summary, args.seed)
        names, values = (PER_LAYER, summary["per_layer"]) if args.trace else (
            END_TO_END, summary["end_to_end"])
        if len(values) < len(names):
            summary["correct"] = False
        print(result_line(summary, names, values))
        return 0 if summary["correct"] else 1

    # Every workload: one run with untraced and traced samples each.
    summaries = []
    for workload in FLOWS:
        samples = collect(workload, args.seed, args.seconds, True, args.size)
        summary = summarize(workload, samples)
        report(summary, args.seed)
        summaries.append(summary)
    combined = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
    }
    values = {
        f"{s['workload']}.{name}": value
        for s in summaries
        for name, value in {**s["end_to_end"], **s["per_layer"]}.items()
    }
    units = {**END_TO_END, **PER_LAYER}
    names = {
        f"{s['workload']}.{name}": units[name]
        for s in summaries
        for name in units
    }
    print(result_line(combined, names, values))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
