"""One benchmark sample: a fresh interpreter runs one workload's study call once.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON object
on stdout.  ``--spawned-at`` is the parent's ``CLOCK_MONOTONIC`` reading just
before it started this process, so ``setup_s`` covers interpreter start,
``import repro.cli`` and building the study, but not input generation.
``--cpu`` pins the process to that CPU.
An untraced sample also reports its lap marks (see ``layers.install_laps``)
in seconds from the start of the call.  After the checks every sample runs
the host speed probe (``calibrate.probe``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT_DIR / "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    import repro.cli  # noqa: F401  (what every repro-dmem call pays)
    from repro import telemetry

    import calibrate
    import layers
    import metrics
    from flows import FLOWS

    imported = now()
    flow = FLOWS[args.workload]
    inputs = flow.inputs(args.seed, args.size)

    sample: dict = {"attempted": 0}
    tracer = patches = None
    try:
        if telemetry.enabled():
            raise RuntimeError("telemetry must start disabled")
        if layers.leftover_wrappers():
            raise RuntimeError(f"wrappers installed before the run: {layers.leftover_wrappers()}")
        if args.traced:
            tracer = layers.LayerTracer()
            patches = layers.install(tracer)
        start = now()
        study = flow.build(inputs)
        sample["setup_s"] = (imported - args.spawned_at) + (now() - start)
        if tracer is None:
            marks: list = []
            patches = layers.install_laps(marks, now)
            try:
                start = now()
                result = flow.call(study, inputs)
                end = now()
            finally:
                layers.uninstall(patches)
            sample["wall_s"] = end - start
            sample["laps"] = [mark - start for mark in marks]
            if telemetry.enabled() or layers.leftover_wrappers():
                raise RuntimeError("untraced call ran with telemetry or wrappers on")
        else:
            setup_self_s = dict(tracer.self_s)
            tracer.reset()
            telemetry.enable(reset=True)
            try:
                result, wall = tracer.run_root(lambda: flow.call(study, inputs))
            finally:
                telemetry.disable()
                layers.uninstall(patches)
            left = layers.leftover_wrappers()
            if left:
                raise RuntimeError(f"wrappers left installed: {left}")
            sample["wall_s"] = wall
            sample["layers"] = metrics.layer_metrics(
                tracer, telemetry.registry(), wall, setup_self_s
            )
            sample["self_sum_s"] = math.fsum(tracer.self_s.values())
        outcome = flow.check(result, inputs)
        sample.update(
            attempted=outcome.attempted,
            failed=outcome.failed,
            problems=outcome.problems,
            shape=outcome.shape,
            digest=outcome.digest,
        )
        sample["probe_s"] = calibrate.probe(now)
    except Exception:
        if patches:
            layers.uninstall(patches)
        sample["error"] = traceback.format_exc()
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
