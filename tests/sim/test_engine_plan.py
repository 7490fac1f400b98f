"""The plan-and-price engine against the live one-pass engine it replaced.

:meth:`ExecutionEngine.run` places memory and splits traffic once per
(workload, tier geometry, reserved bytes, seed, testbed), memoizes that
plan and prices it per run.  Every run must still be bit-identical to the
live one-pass run kept in :mod:`oracles <sim.oracles>`, in any order, with
any prefetch switch and any interference source, and so must the dense
access profile and the migrating engine's own loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import telemetry
from repro.casestudies.bfs_placement import baseline_spec, optimized_spec, reordered_spec
from repro.cache import events
from repro.config import SKYLAKE_EMULATION
from repro.config.errors import AllocationError
from repro.config.tiers import TieredMemoryConfig, TierSpec, two_tier_config
from repro.memory.objects import PLACEMENT_POLICIES, AddressSpace, MemoryObject
from repro.memory.tiered import UNPLACED, TieredMemory
from repro.runtime import MigratingExecutionEngine, MigrationPolicy
from repro.sim import ConstantInterference, ExecutionEngine, Platform, RandomInterference
from repro.sim import engine as engine_module
from repro.sim.engine import _tier_weights
from repro.trace.patterns import (
    BlockedPattern,
    GatherPattern,
    HotColdPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    ZipfPattern,
)
from repro.workloads import build_workload, workload_names
from repro.workloads.base import PhaseSpec, WorkloadSpec
from sim import oracles

PAGE = SKYLAKE_EMULATION.page_bytes


def _platform(spec: WorkloadSpec, geometry) -> Platform:
    """``"local"``, ``"3-tier"`` or a pooled platform's local fraction."""
    if geometry == "local":
        return Platform.local_only()
    if geometry == "3-tier":
        tb = SKYLAKE_EMULATION
        third = spec.footprint_bytes // 3
        config = TieredMemoryConfig(
            tiers=(
                TierSpec("local-dram", third, tb.local_bandwidth, tb.local_latency),
                TierSpec("cxl", third, tb.remote_bandwidth, tb.remote_latency, pooled=True),
                TierSpec("pool", third + 64 * PAGE, tb.remote_bandwidth, tb.remote_latency, pooled=True),
            )
        )
        return Platform(tier_config=config, label="3-tier")
    return Platform.pooled(spec.footprint_bytes, geometry)


def _interference(kind):
    if kind == "constant":
        return ConstantInterference(30.0)
    if kind == "random":
        # Slots far shorter than a phase, so every phase prices its own clock.
        return RandomInterference(0.0, 50.0, interval=0.01, seed=3)
    if kind == "random-slow":
        return RandomInterference(0.0, 50.0, interval=5.0, seed=3)
    return None


def _outcome(fn):
    """``fn()``'s result, or the type of the allocation error it raised."""
    try:
        return fn()
    except AllocationError as exc:
        return type(exc)


def _assert_same_run(got, expected):
    if isinstance(expected, type):
        assert got is expected
        return
    # repr() spells every float exactly, so equal reprs are equal bits.
    assert repr(got) == repr(expected)


def _assert_same_profile(got, expected):
    assert got.page_ids.dtype == expected.page_ids.dtype
    assert np.array_equal(got.page_ids, expected.page_ids)
    assert got.counts.dtype == expected.counts.dtype
    assert got.counts.tobytes() == expected.counts.tobytes()


def _check_runs(spec, runs):
    """Run ``runs`` through the engine in the given order and the oracle."""
    for geometry, seed, prefetch, kind, reserved in runs:
        platform = _platform(spec, geometry)
        got = _outcome(
            lambda: ExecutionEngine(platform, seed=seed).run(
                spec,
                prefetch_enabled=prefetch,
                interference=_interference(kind),
                reserved_local_bytes=reserved,
            )
        )
        expected = _outcome(
            lambda: oracles.run(
                ExecutionEngine(platform, seed=seed),
                spec,
                prefetch_enabled=prefetch,
                interference=_interference(kind),
                reserved_local_bytes=reserved,
            )
        )
        _assert_same_run(got, expected)


# -- the six applications and the BFS variants ---------------------------------------

SPECS = {name: (lambda name=name: build_workload(name)) for name in workload_names()}
SPECS["BFS-reordered"] = lambda: reordered_spec(1.0)
SPECS["BFS-optimized"] = lambda: optimized_spec(1.0)


def _app_runs(spec):
    reserved = (spec.footprint_bytes // 10 // PAGE) * PAGE
    return [
        ("local", 0, True, None, 0),
        ("local", 0, False, None, 0),
        (0.75, 0, None, None, 0),
        (0.25, 0, None, None, 0),
        (0.5, 0, None, None, 0),
        (0.5, 0, None, "constant", 0),
        (0.5, 0, False, "random-slow", 0),
        (0.5, 0, None, None, reserved),
        ("local", 1, None, None, 0),
        (0.5, 1, True, "constant", 0),
        (0.5, 1, None, None, reserved),
    ]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_applications_match_the_live_engine(name):
    spec = SPECS[name]()
    runs = _app_runs(spec)
    random.Random(name).shuffle(runs)
    _check_runs(spec, runs)
    engine = ExecutionEngine(Platform.local_only(), seed=1)
    _assert_same_profile(engine.access_profile(spec), oracles.access_profile(engine, spec))
    last = spec.phases[-1].name
    _assert_same_profile(
        engine.access_profile(spec, phases=[last]),
        oracles.access_profile(engine, spec, phases=[last]),
    )


# -- generated workloads -------------------------------------------------------------

@dataclass(frozen=True)
class EveryThirdPage:
    """Traffic on every third page only: the other pages weigh exactly 0."""

    stream_fraction: float = 0.5

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        weights = np.zeros(n_pages)
        weights[::3] = rng.random(len(weights[::3]))
        return weights / weights.sum()


PATTERNS = (
    EveryThirdPage(),
    SequentialPattern(),
    StridedPattern(stride_lines=4),
    RandomPattern(),
    ZipfPattern(alpha=1.3),
    HotColdPattern(hot_fraction=0.2, hot_traffic=0.8),
    BlockedPattern(block_lines=128),
    GatherPattern(),
)


@st.composite
def workloads(draw) -> WorkloadSpec:
    n_objects = draw(st.integers(1, 4))
    objects = tuple(
        MemoryObject(
            name=f"o{i}",
            size_bytes=draw(st.integers(1, 40)) * PAGE - draw(st.sampled_from((0, 0, 100))),
            pattern=draw(st.sampled_from(PATTERNS)),
            placement=draw(st.sampled_from(PLACEMENT_POLICIES)),
        )
        for i in range(n_objects)
    )
    names = [o.name for o in objects]
    phases = []
    for p in range(draw(st.integers(1, 3))):
        shares = draw(st.lists(st.integers(0, 4), min_size=n_objects, max_size=n_objects))
        if not any(shares):
            shares[0] = 1
        traffic = {n: s / sum(shares) for n, s in zip(names, shares) if s or p % 2}
        phases.append(
            PhaseSpec(
                name=f"p{p + 1}",
                flops=draw(st.sampled_from((0.0, 1e9, 1e11))),
                dram_bytes=draw(st.integers(1, 1000)) * 1e7,
                object_traffic=traffic,
                write_fraction=draw(st.sampled_from((0.0, 0.25, 0.5))),
                mlp=draw(st.sampled_from((2.0, 8.0))),
                stream_fraction=draw(st.sampled_from((None, None, 0.5))),
                prefetch_accuracy_hint=draw(st.sampled_from((None, None, 0.6))),
            )
        )
    late = draw(st.lists(st.sampled_from(names), unique=True, max_size=2))
    init_only = draw(
        st.lists(st.sampled_from([n for n in names if n not in late] or names), unique=True, max_size=1)
    )
    return WorkloadSpec(
        name="generated",
        input_label="hypothesis",
        scale=1.0,
        objects=objects,
        phases=tuple(phases),
        init_only_objects=tuple(n for n in init_only if n not in late),
        late_objects=tuple(late),
    )


runs_strategy = st.lists(
    st.tuples(
        st.sampled_from(("local", 0.75, 0.5, 0.25, "3-tier")),
        st.integers(0, 2),
        st.sampled_from((None, True, False)),
        st.sampled_from((None, "constant", "random")),
        st.sampled_from((0, 0, PAGE, 3 * PAGE)),
    ),
    min_size=2,
    max_size=6,
)


@given(spec=workloads(), runs=runs_strategy, data=st.data())
def test_generated_workloads_match_the_live_engine(spec, runs, data):
    # Repeat one configuration with another prefetch switch and
    # interference, in a drawn order, so some runs price another's plan.
    geometry, seed, _, _, reserved = runs[0]
    runs = runs + [(geometry, seed, False, "random", reserved)]
    _check_runs(spec, data.draw(st.permutations(runs)))
    engine = ExecutionEngine(Platform.local_only(), seed=seed)
    _assert_same_profile(engine.access_profile(spec), oracles.access_profile(engine, spec))


# -- the migrating engine keeps its own loop -----------------------------------------


@pytest.mark.parametrize(
    "spec_fn, geometry, kind",
    [
        (lambda: baseline_spec(1.0), 0.25, None),
        (lambda: optimized_spec(1.0), 0.25, "random-slow"),
        (lambda: build_workload("Hypre"), "local", None),
    ],
)
def test_migrating_engine_matches_the_live_loop(spec_fn, geometry, kind):
    spec = spec_fn()
    platform = _platform(spec, geometry)
    policy = MigrationPolicy(epoch_seconds=20.0, promotion_budget_pages=50_000)
    engine = MigratingExecutionEngine(platform, policy, seed=0)
    got = engine.run(spec, interference=_interference(kind))
    reference = MigratingExecutionEngine(platform, policy, seed=0)
    expected, stats = oracles.migrating_run(reference, spec, interference=_interference(kind))
    _assert_same_run(got, expected)
    assert engine.last_migration_stats == stats
    if platform.is_pooled:
        assert stats.epochs > len(spec.phases) and stats.promoted_pages > 0


@given(spec=workloads(), seed=st.integers(0, 2))
def test_generated_migrating_runs_match_the_live_loop(spec, seed):
    platform = _platform(spec, 0.5)
    policy = MigrationPolicy(epoch_seconds=0.02, promotion_budget_pages=8)
    got = _outcome(lambda: MigratingExecutionEngine(platform, policy, seed=seed).run(spec))
    reference = MigratingExecutionEngine(platform, policy, seed=seed)
    expected = _outcome(lambda: oracles.migrating_run(reference, spec)[0])
    _assert_same_run(got, expected)


# -- the plan memo -------------------------------------------------------------------


class TestPlanMemo:
    def test_prefetch_pair_and_loi_sweep_share_one_plan(self):
        spec = build_workload("XSBench")
        local = ExecutionEngine(Platform.local_only(), seed=0)
        pooled = ExecutionEngine(Platform.pooled(spec.footprint_bytes, 0.5), seed=0)
        with telemetry.isolated(True) as registry:
            local.run(spec, prefetch_enabled=True)
            local.run(spec, prefetch_enabled=False)
            for loi in (0.0, 10.0, 20.0):
                pooled.run(spec, interference=ConstantInterference(loi) if loi else None)
            # Another engine object on an equal geometry shares the plan too.
            ExecutionEngine(Platform.pooled(spec.footprint_bytes, 0.5), seed=0).run(spec)
        assert registry.counter("engine.runs").value == 6
        assert registry.counter("engine.plans").value == 2

    def test_seed_reserved_bytes_and_geometry_each_get_their_own_plan(self):
        spec = build_workload("HPL")
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        with telemetry.isolated(True) as registry:
            ExecutionEngine(platform, seed=0).run(spec)
            ExecutionEngine(platform, seed=1).run(spec)
            ExecutionEngine(platform, seed=0).run(spec, reserved_local_bytes=PAGE)
            ExecutionEngine(Platform.pooled(spec.footprint_bytes, 0.25), seed=0).run(spec)
            # A new but equal workload object is a new key (``is``, not ``==``).
            ExecutionEngine(platform, seed=0).run(build_workload("HPL"))
        assert registry.counter("engine.plans").value == 5

    def test_memo_ignores_a_colliding_id(self, monkeypatch):
        impostor, fresh = build_workload("HPL"), build_workload("XSBench")
        engine = ExecutionEngine(Platform.local_only(), seed=0)
        planted = engine._plan(impostor, 0)
        tier_config = engine.platform.tier_config_for(fresh.footprint_bytes)
        key = (id(fresh), tier_config, 0, 0, SKYLAKE_EMULATION)
        monkeypatch.setitem(engine_module._plans, key, (impostor, planted))
        assert engine._plan(fresh, 0) is not planted
        _assert_same_run(engine.run(fresh), oracles.run(engine, fresh))

    def test_memo_is_bounded(self):
        platform = Platform.local_only()
        spec = WorkloadSpec(
            name="tiny",
            input_label="",
            scale=1.0,
            objects=(MemoryObject("a", 200 * PAGE),),
            phases=(PhaseSpec("p1", flops=1e9, dram_bytes=1e8, object_traffic={"a": 1.0}),),
        )
        for seed in range(engine_module._PLAN_MEMO_SIZE + 5):
            ExecutionEngine(platform, seed=seed)._plan(spec, 0)
        assert len(engine_module._plans) == engine_module._PLAN_MEMO_SIZE

    def test_mutating_one_result_leaves_other_runs_untouched(self):
        spec = build_workload("NekRS")
        engine = ExecutionEngine(Platform.pooled(spec.footprint_bytes, 0.5), seed=0)
        first = engine.run(spec)
        second = engine.run(spec)
        pristine = repr(second)
        first.phases[0].counters.set(events.FP_ARITH_OPS, -1.0)
        first.phases[0].counters.add("made.up", 5.0)
        assert repr(second) == pristine
        assert repr(engine.run(spec)) == pristine
        assert first.phases[0].counters is not second.phases[0].counters


# -- slices, not index arrays --------------------------------------------------------


def _masked_tier_weights(placement, weights, n_tiers):
    """The per-tier masked sums ``_tier_weights`` replaces for sorted placements."""
    parts = [(tier, weights[placement == tier]) for tier in range(n_tiers)]
    parts.append((0, weights[placement < 0]))
    return [(tier, float(part.sum())) for tier, part in parts if len(part)]


@given(
    runs=st.lists(st.integers(0, 700), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
    unplaced=st.booleans(),
)
def test_slice_sum_equals_the_masked_sum_it_replaces(runs, seed, unplaced):
    n_tiers = len(runs)
    tiers = [UNPLACED] if unplaced else []
    placement = np.repeat(
        np.array(tiers + list(range(n_tiers)), dtype=np.int8),
        ([5] if unplaced else []) + runs,
    )
    weights = np.random.default_rng(seed).random(len(placement))
    got = _tier_weights(placement, weights, n_tiers)
    expected = _masked_tier_weights(placement, weights, n_tiers)
    assert [(t, w.hex()) for t, w in got] == [(t, w.hex()) for t, w in expected]
    # An unsorted (interleaved) placement takes the masked path.
    shuffled = np.random.default_rng(seed).permutation(placement)
    assert _tier_weights(shuffled, weights, n_tiers) == _masked_tier_weights(
        shuffled, weights, n_tiers
    )


def _memory_with(*objects, local_pages=6, remote_pages=40):
    space = AddressSpace(page_bytes=PAGE, line_bytes=64)
    space.register_all(objects)
    config = two_tier_config(local_pages * PAGE, remote_pages * PAGE)
    return TieredMemory(config, space)


def test_placement_reads_the_slice_the_page_range_gathers():
    a = MemoryObject("a", 4 * PAGE)
    b = MemoryObject("b", 5 * PAGE, placement="interleave")
    memory = _memory_with(a, b)
    memory.touch_in_order([a, b])
    for obj in (a, b):
        assert np.array_equal(memory.placement_of(obj), memory.page_tiers()[obj.page_range()])
    assert memory.object_tier_bytes(b) == {
        usage.name: int((memory.placement_of(b) == tier).sum()) * PAGE
        for tier, usage in enumerate(memory.usage)
    }
    # The caller gets a copy, not a view into the page table.
    memory.placement_of(a)[:] = 1
    assert np.all(memory.placement_of(a) == 0)


def test_placement_of_an_unregistered_object_raises():
    memory = _memory_with(MemoryObject("a", 4 * PAGE))
    stranger = MemoryObject("stranger", 2 * PAGE)
    with pytest.raises(AllocationError):
        memory.placement_of(stranger)
    with pytest.raises(AllocationError):
        memory.object_tier_bytes(stranger)
