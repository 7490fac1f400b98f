"""How much engine work the paper's methodology does, counted rather than timed.

Per application the methodology runs level 1 on a local-only system (prefetch
on and off, plus the access profile), level 2 at the 75/50/25% capacity
splits, and level 3's IC and LoI sweep at the 50% split.  Placement and the
per-page weight draws happen once per (workload, tier geometry): four plans
per application serve its eleven engine runs.  The four plans and the
access profile consume the generator alike, so the profiler draws each
random weight array once and shares it with the other four passes.  Uniform
and hot/cold weights are read as runs and never drawn.  The dense draws are
counted with the helper behind the ``engine_profile_levels`` rows of
``BENCH_cosim.json``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.config import SKYLAKE_EMULATION
from repro.memory.objects import AddressSpace
from repro.profiler.profiler import MultiLevelProfiler
from repro.workloads import build_workload, workload_names

BENCH_PERF_PY = Path(__file__).resolve().parents[2] / "tools" / "bench_perf.py"


def _bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf", BENCH_PERF_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _draws_per_pass(spec) -> tuple[int, int]:
    """``page_weights`` draws of one pass over every phase's object traffic.

    Returns (draws that consume the generator, draws that do not), sorted by
    drawing each object's weights once from a fresh generator.
    """
    space = AddressSpace(
        page_bytes=SKYLAKE_EMULATION.page_bytes, line_bytes=SKYLAKE_EMULATION.cacheline_bytes
    )
    objects = {o.name: o for o in space.register_all(spec.fresh_objects())}
    consuming = other = 0
    for phase in spec.phases:
        for name, fraction in phase.object_traffic.items():
            if phase.dram_bytes * fraction <= 0:
                continue
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            objects[name].pattern.page_weights(objects[name].n_pages, rng)
            if rng.bit_generator.state != before:
                consuming += 1
            else:
                other += 1
    return consuming, other


def test_methodology_plans_each_geometry_once():
    bench_perf = _bench_perf()
    profiler = MultiLevelProfiler(seed=1)
    for name in workload_names():
        spec = build_workload(name)

        def methodology():
            profiler.level1(spec)
            profiler.level2_sweep(spec, bench_perf.PROFILE_SPLITS)
            profiler.level3(spec, local_fraction=0.5)

        with telemetry.isolated(True) as registry:
            _, draws = bench_perf.count_page_weight_draws(methodology)
        # Local-only, 75%, 50% and 25%: level 3 reuses level 2's 50% plan.
        assert registry.counter("engine.plans").value == 4, name
        # Level 1: 2 runs; level 2: 3; level 3: the six-point LoI sweep, whose
        # LoI-0 run is also the IC's run.
        assert registry.counter("engine.runs").value == 11, name
        # One pass of draws per plan, plus level 1's access profile: five in
        # all.  A draw that consumes the generator is made once and shared;
        # the others are runs, never drawn.
        consuming, other = _draws_per_pass(spec)
        assert draws == consuming, name
        assert registry.counter("engine.draws").value == 5 * (consuming + other), name
        assert registry.counter("engine.draws.shared").value == 4 * consuming, name
