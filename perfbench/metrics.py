"""Metric catalogue: names, units and how per-layer numbers derive from a trace.

``BENCHMARK.json`` lists exactly these names; ``tests/test_perfbench_layers.py``
holds the two in step.
"""

from __future__ import annotations

from layers import ROOT, LayerTracer

#: name -> unit of every end-to-end metric (untraced runs).
END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers reported with both a call count and self time.
CALL_LAYERS = (
    "scheduler.placement",
    "scheduler.progress",
    "sim.perfmodel",
    "interconnect.share",
    "fabric.rates",
    "fabric.step",
    "fabric.solver",
    "fabric.pool",
    "fabric.admit",
    "profiler.level1",
    "profiler.level2",
    "profiler.level3",
    "trace",
    "memory.tiered",
    "cache",
    "sim.engine",
)

#: Layers whose call count says nothing useful (a loop, a generator's next()).
SELF_ONLY_LAYERS = ("scheduler.loop", "fabric.faults", "data.ingest")


def _per_layer_units() -> dict:
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in SELF_ONLY_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "scheduler.placement.hit_ratio": "ratio",
            "scheduler.events": "count",
            "sim.perfmodel.distinct_ratio": "ratio",
            "fabric.step.batched_ratio": "ratio",
            "fabric.solver.iterations": "count",
            "fabric.epoch.skip_ratio": "ratio",
            "fabric.faults.applied": "count",
            "data.ingest.rows": "count",
            "workloads.build.self_s": "s",
            f"{ROOT}.self_s": "s",
            "traced.wall_s": "s",
            "telemetry.trace_overhead_pct": "%",
        }
    )
    return units


#: name -> unit of every per-layer metric (traced runs).
PER_LAYER = _per_layer_units()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, registry, wall: float, setup_self_s: dict) -> dict:
    """Per-layer metrics of one traced call (everything but the overhead).

    ``tracer`` holds the timed call only; ``setup_self_s`` is the tracer's
    self-time table from building the study, which is where workloads are
    built.  ``registry`` is the telemetry registry the call recorded into.
    """
    calls, self_s, targets = tracer.calls, tracer.self_s, tracer.target_calls
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in SELF_ONLY_LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    placement_calls = calls.get("scheduler.placement", 0)
    perf_calls = calls.get("sim.perfmodel", 0)
    frozen = targets.get("RackCoSimulator.step_frozen", 0)
    rack_steps = targets.get("RackCoSimulator.step", 0) + frozen
    skips = registry.counter("fabric.cosim.epoch_skips").value
    resolves = registry.counter("fabric.cosim.epoch_resolves").value
    iterations = sum(
        sum(registry.histogram(name).values)
        for name in ("fabric.solve.iterations", "fabric.cluster.solve.iterations")
    )
    out.update(
        {
            "scheduler.placement.hit_ratio": _ratio(
                tracer.hits.get("scheduler.placement", 0), placement_calls
            ),
            "scheduler.events": int(registry.counter("scheduler.events").value),
            "sim.perfmodel.distinct_ratio": _ratio(
                len(tracer.distinct.get("sim.perfmodel", ())), perf_calls
            ),
            "fabric.step.batched_ratio": _ratio(frozen, rack_steps),
            "fabric.solver.iterations": int(iterations),
            "fabric.epoch.skip_ratio": _ratio(skips, skips + resolves),
            "fabric.faults.applied": targets.get("RackCoSimulator.apply_fault", 0),
            "data.ingest.rows": int(registry.counter("data.slurm.rows_read").value),
            "workloads.build.self_s": setup_self_s.get("workloads.build", 0.0),
            f"{ROOT}.self_s": self_s.get(ROOT, 0.0),
            "traced.wall_s": wall,
        }
    )
    return out
