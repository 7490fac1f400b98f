"""Self-time arithmetic of the layer tracer, and wrapper install/removal.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_nested_self_times_sum_to_the_root_wall():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def inner():
        clock.t += 5.0

    def outer():
        clock.t += 1.0
        wrapped_inner()
        clock.t += 2.0

    wrapped_inner = layers._wrap_function(tracer, "B", "inner", inner)
    wrapped_outer = layers._wrap_function(tracer, "A", "outer", outer)

    def study():
        clock.t += 0.5
        wrapped_outer()
        wrapped_outer()

    _, wall = tracer.run_root(study)
    assert wall == 16.5
    assert tracer.self_s == {"A": 6.0, "B": 10.0, layers.ROOT: 0.5}
    assert tracer.calls == {"A": 2, "B": 2, layers.ROOT: 1}
    assert math.fsum(tracer.self_s.values()) == wall


def test_same_layer_nesting_is_one_call():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def detailed():
        clock.t += 3.0

    wrapped_detailed = layers._wrap_function(tracer, "solver", "detailed", detailed)

    def resolve():
        clock.t += 1.0
        wrapped_detailed()

    wrapped_resolve = layers._wrap_function(tracer, "solver", "resolve", resolve)
    _, wall = tracer.run_root(wrapped_resolve)
    assert tracer.calls["solver"] == 1
    assert tracer.target_calls == {layers.ROOT: 1, "resolve": 1, "detailed": 1}
    assert tracer.self_s["solver"] == 4.0 == wall


def test_generator_time_is_counted_in_next_only():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def rows():
        for row in range(3):
            clock.t += 2.0
            yield row

    wrapped = layers._wrap_function(tracer, "ingest", "rows", rows)

    def consume():
        for _ in wrapped():
            clock.t += 1.0  # the consumer's own work

    _, wall = tracer.run_root(consume)
    assert wall == 9.0
    assert tracer.self_s["ingest"] == 6.0
    assert tracer.self_s[layers.ROOT] == 3.0


def test_exceptions_close_the_frame():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def boom():
        clock.t += 1.0
        raise ValueError("boom")

    wrapped = layers._wrap_function(tracer, "A", "boom", boom)
    with pytest.raises(ValueError):
        tracer.run_root(wrapped)
    assert tracer.self_s == {"A": 1.0, layers.ROOT: 0.0}
    assert tracer._stack == []


def test_hit_hook_counts_non_none_results():
    tracer = layers.LayerTracer(clock=FakeClock())
    choose = layers._wrap_function(
        tracer, "scheduler.placement", "choose", lambda ok: "rack" if ok else None,
        layers._count_hit,
    )
    for ok in (True, False, False, True):
        choose(ok)
    assert tracer.calls["scheduler.placement"] == 4
    assert tracer.hits["scheduler.placement"] == 2


def test_install_wraps_every_target_and_uninstall_removes_all():
    import repro.cli  # noqa: F401
    from repro import telemetry
    from repro.scheduler import simulator
    from repro.sim.perfmodel import PerformanceModel
    from repro.trace.access import PageAccessProfile
    from repro.casestudies import trace_replay

    original_phase_time = PerformanceModel.phase_time
    original_from_batch = vars(PageAccessProfile)["from_batch"]
    original_read = trace_replay.read_sacct
    assert layers.leftover_wrappers() == []

    patches = layers.install(layers.LayerTracer())
    try:
        assert getattr(PerformanceModel.phase_time, layers.MARKER) == "sim.perfmodel"
        assert getattr(trace_replay.read_sacct, layers.MARKER) == "data.ingest"
        assert simulator.trace_span is not telemetry.trace_span
        for layer, targets in layers.layer_targets().items():
            for owner, name in targets:
                assert getattr(vars(owner)[name], layers.MARKER, None) == layer, (owner, name)
        assert layers.leftover_wrappers()
    finally:
        layers.uninstall(patches)

    assert layers.leftover_wrappers() == []
    assert PerformanceModel.phase_time is original_phase_time
    assert vars(PageAccessProfile)["from_batch"] is original_from_batch
    assert trace_replay.read_sacct is original_read
    assert simulator.trace_span is telemetry.trace_span


def test_laps_mark_every_target_call_and_uninstall_removes_them():
    import repro.cli  # noqa: F401
    from repro.fabric.cluster import ClusterCoSimulator

    original_step = vars(ClusterCoSimulator)["step"]
    clock = FakeClock()
    marks: list = []
    patches = layers.install_laps(marks, clock)
    try:
        for owner, name in layers.lap_targets():
            assert getattr(vars(owner)[name], layers.MARKER, None) == "lap", (owner, name)
        assert layers.leftover_wrappers()
        step = vars(ClusterCoSimulator)["step"]
        clock.t = 2.5
        with pytest.raises(Exception):
            step(None, 1.0)  # the original runs (and fails on a bogus self)
        assert marks == [2.5]
    finally:
        layers.uninstall(patches)
    assert layers.leftover_wrappers() == []
    assert vars(ClusterCoSimulator)["step"] is original_step


def test_lap_wall_sums_the_fastest_time_of_each_lap():
    import run

    samples = [
        {"wall_s": 6.0, "laps": [1.0, 4.0]},  # laps of 1, 3, 2 s
        {"wall_s": 5.0, "laps": [3.0, 4.0]},  # laps of 3, 1, 1 s
    ]
    assert run.lap_wall(samples) == (3.0, 3)
    # Lap counts that differ: the fastest whole call, as one lap.
    samples[1]["laps"] = [3.0]
    assert run.lap_wall(samples) == (5.0, 1)


def test_probe_reports_the_fastest_repetition():
    import calibrate

    readings = iter([0.0, 3.0, 10.0, 11.5, 20.0, 22.0])
    assert calibrate.probe(clock=lambda: next(readings), repetitions=3) == 1.5


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
