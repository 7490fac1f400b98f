"""The multi-level profiler's shared page-weight draws change no result.

:class:`MultiLevelProfiler` opens a :func:`~repro.sim.engine.sharing_draws`
scope around each level, so the plans and the access profile of one
workload draw each random weight array once.  Every level must still equal,
bit for bit, the same level run through the ``Level{1,2,3}Profiler`` classes
outside any scope, whatever order the levels and workloads come in.  Only
the profiler keeps draws, and only those of the workload it profiled last.
"""

from __future__ import annotations

import gc
import sys
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import telemetry
from repro.casestudies.scheduling import SchedulingCaseStudy
from repro.config.errors import AllocationError
from repro.fabric.cosim import baseline_run
from repro.memory.objects import MemoryObject
from repro.profiler.level1 import Level1Profiler
from repro.profiler.level2 import Level2Profiler
from repro.profiler.level3 import Level3Profiler
from repro.profiler.profiler import MultiLevelProfiler
from repro.sim import Platform
from repro.sim import engine as engine_module
from repro.trace import patterns
from repro.workloads import build_workload, workload_names
from repro.workloads.base import PhaseSpec, WorkloadSpec
from sim.test_engine_plan import PAGE, workloads

FRACTIONS = (0.75, 0.5, 0.25)
LOI_LEVELS = (0.0, 20.0, 50.0)
LEVELS = ("level1", "level2", "level2_sweep", "level3", "level3_sensitivity")


def _scoped(profiler: MultiLevelProfiler, level: str, spec):
    """One level through the profiler facade (inside its draw-sharing scope)."""
    if level == "level1":
        return profiler.level1(spec)
    if level == "level2":
        return profiler.level2(spec, local_fraction=0.5)
    if level == "level2_sweep":
        return profiler.level2_sweep(spec, FRACTIONS)
    if level == "level3":
        return profiler.level3(spec, local_fraction=0.5, loi_levels=LOI_LEVELS)
    return profiler.level3_sensitivity(spec, FRACTIONS, LOI_LEVELS)


def _unscoped(seed: int, level: str, spec):
    """The same level through the level classes, outside any scope."""
    pooled = Platform.pooled(spec.footprint_bytes, 0.5)
    if level == "level1":
        return Level1Profiler(seed=seed).profile(spec)
    if level == "level2":
        return Level2Profiler(seed=seed).profile(spec, pooled)
    if level == "level2_sweep":
        return Level2Profiler(seed=seed).profile_capacity_ratios(spec, FRACTIONS)
    if level == "level3":
        return Level3Profiler(seed=seed).interference_coefficient(
            spec, pooled, loi_levels=LOI_LEVELS
        )
    return Level3Profiler(seed=seed).sensitivity_across_configs(spec, FRACTIONS, LOI_LEVELS)


def _text(fn) -> str:
    """``repr(fn())`` with every float spelled exactly, or the allocation error."""
    try:
        result = fn()
    except AllocationError as exc:
        return f"AllocationError: {exc}"
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        return repr(result)


def _check(seed: int, specs, calls) -> None:
    """Run ``calls`` ((spec index, level) pairs) on one profiler and unscoped.

    The unscoped side profiles a copy of each workload: the engine memoizes
    plans per workload object, and a shared plan would share its draws too.
    """
    profiler = MultiLevelProfiler(seed=seed)
    copies = [replace(spec) for spec in specs]
    for index, level in calls:
        got = _text(lambda: _scoped(profiler, level, specs[index]))
        expected = _text(lambda: _unscoped(seed, level, copies[index]))
        assert got == expected, (index, level)


def test_six_applications_interleaved_match_unscoped_levels():
    names = workload_names()
    specs = [build_workload(name) for name in names]
    # Each application's levels, with another application's level between
    # two of them, so the profiler drops and redraws its memo.
    calls = []
    for index in range(len(specs)):
        calls += [(index, "level1"), ((index + 1) % len(specs), "level2")]
        calls += [(index, level) for level in LEVELS[1:]]
    _check(1, specs, calls)


@given(
    specs=st.lists(workloads(), min_size=1, max_size=3),
    seed=st.integers(0, 2),
    data=st.data(),
)
def test_generated_workloads_match_unscoped_levels(specs, seed, data):
    calls = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(specs) - 1), st.sampled_from(LEVELS)),
            min_size=1,
            max_size=8,
        )
    )
    _check(seed, specs, calls)


@dataclass
class UnhashableSkew:
    """A skewed pattern that compares by value but cannot be hashed."""

    stream_fraction: float = 0.3

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        weights = rng.random(n_pages)
        return weights / weights.sum()


def test_an_unhashable_pattern_draws_afresh():
    spec = WorkloadSpec(
        name="unhashable",
        input_label="",
        scale=1.0,
        objects=(MemoryObject("a", 50 * PAGE, pattern=UnhashableSkew()),),
        phases=(PhaseSpec("p1", flops=1e9, dram_bytes=1e8, object_traffic={"a": 1.0}),),
    )
    with telemetry.isolated(True) as registry:
        _check(0, [spec], [(0, "level1"), (0, "level2_sweep")])
    assert registry.counter("engine.draws").value > 0
    assert registry.counter("engine.draws.shared").value == 0


# -- where draws are kept ------------------------------------------------------------


@pytest.fixture
def scopes_at_draws(monkeypatch):
    """The draw memo open at each ``page_weights`` call (None: no scope)."""
    seen = []
    for cls in vars(patterns).values():
        if isinstance(cls, type) and "page_weights" in vars(cls):
            method = vars(cls)["page_weights"]

            def spy(self, n_pages, rng, method=method):
                seen.append(engine_module._draw_memo.get())
                return method(self, n_pages, rng)

            monkeypatch.setattr(cls, "page_weights", spy)
    return seen


def test_fabric_baselines_and_case_studies_keep_no_draw(scopes_at_draws):
    spec = build_workload("SuperLU")
    with telemetry.isolated(True) as registry:
        baseline_run(spec, 0.5, seed=4)
        SchedulingCaseStudy(seed=5).sensitivity_of(build_workload("SuperLU"))
        Level3Profiler(seed=6).sensitivity(spec, Platform.pooled(spec.footprint_bytes, 0.25))
    assert scopes_at_draws and all(memo is None for memo in scopes_at_draws)
    assert registry.counter("engine.draws").value > 0
    assert registry.counter("engine.draws.shared").value == 0


def test_profiler_draws_inside_its_own_scope(scopes_at_draws):
    profiler = MultiLevelProfiler(seed=0)
    with telemetry.isolated(True) as registry:
        profiler.level1(build_workload("BFS"))
    assert scopes_at_draws and all(memo is profiler._draws for memo in scopes_at_draws)
    assert engine_module._draw_memo.get() is None
    # BFS's two skewed draws are made by the local-only plan and shared
    # with the access profile.
    assert registry.counter("engine.draws.shared").value == 2


def test_profiler_holds_draws_of_one_application_at_a_time():
    profiler = MultiLevelProfiler(seed=0)
    previous = []
    for name in ("BFS", "SuperLU", "NekRS", "XSBench"):
        spec = build_workload(name)
        profiler.level1(spec)
        profiler.level2_sweep(spec, FRACTIONS)
        gc.collect()
        # The previous application's arrays are gone; this one's are read-only.
        assert all(ref() is None for ref in previous), name
        own_patterns = {o.pattern for o in spec.objects}
        assert all(pattern in own_patterns for pattern, _, _ in profiler._draws), name
        held = [weights for weights, _ in profiler._draws.values()]
        assert not any(weights.flags.writeable for weights in held), name
        previous = [weakref.ref(weights) for weights in held]
        del held
    # XSBench's weights are uniform, random and hot/cold: nothing worth holding.
    assert profiler._draws == {}
