"""Run-length page weights and their sums, against the dense arrays they replace.

Sequential, strided, random, blocked and hot/cold patterns describe their
page weights as runs, and the engine sums tier slices of them with
:func:`pairwise_sum` instead of building the page-length arrays.  Every
plan, access profile and digest keeps its bits only if

* :func:`pairwise_sum` gives the float ``np.add.reduce`` gives over the
  expanded slice, for every length and every place a run edge can fall;
* each pattern's expanded runs equal the dense formula it used to fill;
* the in-place Zipf and gather draws equal the chained arithmetic;
* ``_tier_weights`` and ``access_profile`` on runs equal the dense sums.

The dense formulas live in ``pattern_oracles``.  If a NumPy release changes
its summation order, this suite fails instead of the digests moving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.memory.objects import MemoryObject
from repro.memory.tiered import UNPLACED
from repro.sim import ExecutionEngine, Platform
from repro.sim import engine as engine_module
from repro.sim.engine import _page_weights, _tier_weights
from repro.trace import patterns
from repro.trace.patterns import (
    BlockedPattern,
    GatherPattern,
    HotColdPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    ZipfPattern,
    expand_runs,
    pairwise_sum,
)
from repro.workloads import build_workload, workload_names
from repro.workloads.base import PhaseSpec, WorkloadSpec

import pattern_oracles as oracles
from sim import oracles as engine_oracles

PAGE = 4096


def _bits(value: float) -> str:
    """``float.hex``: tells 0.0 from -0.0 where ``==`` does not."""
    return float(value).hex()


def _reduce(dense: np.ndarray, start: int, stop: int) -> float:
    return float(np.add.reduce(dense[start:stop]))


# -- the summation helper ------------------------------------------------------------

#: Run lengths around every size NumPy's pairwise summation treats apart.
LENGTHS = st.one_of(
    st.integers(0, 7),
    st.integers(8, 128),
    st.integers(129, 3000),
    st.integers(1, 400).map(lambda k: 8 * k + 1),
    st.integers(1, 400).map(lambda k: 8 * k - 1),
    st.sampled_from((8, 16, 64, 120, 128, 136, 256, 1024, 2048)),
)
VALUES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, 0.1, 1e300)),
)
RUNS = st.lists(st.tuples(VALUES, LENGTHS), min_size=0, max_size=5).map(tuple)


@given(runs=RUNS, data=st.data())
def test_pairwise_sum_is_numpys_sum_of_the_expanded_slice(runs, data):
    dense = expand_runs(runs)
    start = data.draw(st.integers(0, len(dense)))
    stop = data.draw(st.integers(start, len(dense)))
    assert _bits(pairwise_sum(runs, start, stop)) == _bits(_reduce(dense, start, stop))
    assert _bits(pairwise_sum(runs)) == _bits(float(np.add.reduce(dense)))


@pytest.mark.parametrize("n", list(range(0, 20)) + [63, 64, 65, 127, 128, 129, 130, 135, 136, 137,
                                                    255, 256, 257, 1023, 1024, 1025, 4097])
def test_one_run_of_every_small_length(n):
    for value in (1.0 / 3.0, 0.1, 1.0 / max(n, 1), 7e-5):
        runs = ((value, n),)
        assert _bits(pairwise_sum(runs)) == _bits(float(np.add.reduce(np.full(n, value))))


@pytest.mark.parametrize("edge", [1, 7, 8, 9, 63, 64, 120, 128, 129, 136, 256, 512, 520])
def test_run_edges_at_block_edges(edge):
    # Ranges split at n // 2 rounded down to a multiple of 8: put the edge
    # between two runs on, just before and just after such points.
    runs = ((0.9 / edge + 0.1 / 1040, edge), (0.1 / 1040, 1040 - edge))
    dense = expand_runs(runs)
    for start in (0, 1, 7, 8, 9):
        for stop in (edge, edge + 1, 1040 - 1, 1040):
            if start <= stop:
                got = pairwise_sum(runs, start, stop)
                assert _bits(got) == _bits(_reduce(dense, start, stop)), (start, stop)


def test_slices_of_two_million_pages():
    runs = ((0.85 / 131_072 + 0.15 / 2_097_153, 131_072), (0.15 / 2_097_153, 1_966_081))
    dense = expand_runs(runs)
    assert len(dense) >= 2_000_000
    rng = np.random.default_rng(7)
    bounds = [(0, len(dense)), (0, 131_072), (131_072, len(dense)), (1, len(dense) - 1)]
    bounds += [tuple(sorted(rng.integers(0, len(dense) + 1, size=2))) for _ in range(6)]
    for start, stop in bounds:
        assert _bits(pairwise_sum(runs, start, stop)) == _bits(_reduce(dense, start, stop))


def test_slice_arguments_follow_python_slicing():
    runs = ((0.25, 3), (0.5, 10))
    dense = expand_runs(runs)
    for start, stop in ((-5, None), (2, -1), (20, 30), (8, 4), (None, 9)):
        assert pairwise_sum(runs, start, stop) == float(np.add.reduce(dense[start:stop]))
    assert _bits(pairwise_sum((), 0, 0)) == _bits(0.0)


# -- the patterns' runs --------------------------------------------------------------

UNIFORM = (
    SequentialPattern(),
    StridedPattern(stride_lines=4),
    RandomPattern(),
    BlockedPattern(block_lines=128),
)
HOT_COLD = (
    HotColdPattern(),
    HotColdPattern(hot_fraction=0.6, hot_traffic=0.9),
    HotColdPattern(hot_fraction=0.06, hot_traffic=0.92),
    HotColdPattern(hot_fraction=1.0, hot_traffic=0.5),
    HotColdPattern(hot_fraction=0.3, hot_traffic=0.0),
    HotColdPattern(hot_fraction=0.3, hot_traffic=1.0),
)
PAGE_COUNTS = (0, 1, 2, 3, 7, 8, 9, 100, 257, 1000, 65_537)


def _dense_oracle(pattern, n_pages: int) -> np.ndarray:
    if isinstance(pattern, HotColdPattern):
        return oracles.hot_cold_weights(pattern, n_pages)
    return oracles.uniform_weights(n_pages)


def _check_runs(pattern, n_pages: int) -> None:
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    runs = pattern.page_runs(n_pages)
    expected = _dense_oracle(pattern, n_pages)
    assert expand_runs(runs).tobytes() == expected.tobytes()
    weights = pattern.page_weights(n_pages, rng)
    assert weights.dtype == np.float64
    assert weights.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == before
    assert all(pages > 0 for _, pages in runs)
    assert len(runs) <= (2 if isinstance(pattern, HotColdPattern) else 1)


@pytest.mark.parametrize("pattern", UNIFORM + HOT_COLD, ids=repr)
@pytest.mark.parametrize("n_pages", PAGE_COUNTS)
def test_expanded_runs_are_the_dense_weights(pattern, n_pages):
    _check_runs(pattern, n_pages)


@given(
    hot_fraction=st.floats(1e-6, 1.0),
    hot_traffic=st.floats(0.0, 1.0),
    n_pages=st.integers(0, 70_000),
)
def test_hot_cold_runs_for_any_split(hot_fraction, hot_traffic, n_pages):
    _check_runs(HotColdPattern(hot_fraction=hot_fraction, hot_traffic=hot_traffic), n_pages)


def test_skewed_patterns_define_no_runs():
    for pattern in (ZipfPattern(), GatherPattern()):
        assert not hasattr(pattern, "page_runs")


def test_every_pattern_keeps_its_dense_methods_in_its_own_body():
    # The end-to-end benchmark's layer map binds these by ``vars(cls)``.
    for cls in patterns.PATTERNS.values():
        assert "page_weights" in vars(cls) and "sample_offsets" in vars(cls), cls


# -- dense draws in place ------------------------------------------------------------

ALPHAS = (0.5, 0.7, 0.8, 1.0, 1.1, 1.5, 2.0, 3.3)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n_pages", (0, 1, 2, 9, 1000, 65_537))
def test_in_place_zipf_draw_is_the_chained_one(alpha, n_pages):
    got_rng, expected_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = ZipfPattern(alpha=alpha).page_weights(n_pages, got_rng)
    expected = oracles.zipf_weights(alpha, n_pages, expected_rng)
    assert got.tobytes() == expected.tobytes()
    assert got_rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("alpha", ALPHAS)
def test_zipf_line_popularity_is_the_chained_one(alpha):
    pattern = ZipfPattern(alpha=alpha)
    for n in (1, 5, 1 << 16):
        assert pattern._rank_weights(n).tobytes() == oracles.zipf_rank_weights(alpha, n).tobytes()


@pytest.mark.parametrize(
    "pattern",
    [
        GatherPattern(),
        GatherPattern(indexed_fraction=0.3, skew_alpha=0.5),
        GatherPattern(indexed_fraction=0.5, skew_alpha=0.7),
        GatherPattern(indexed_fraction=0.0, skew_alpha=1.0),
        GatherPattern(indexed_fraction=1.0, skew_alpha=1.0),
        GatherPattern(indexed_fraction=0.45, skew_alpha=2.0),
    ],
    ids=repr,
)
@pytest.mark.parametrize("n_pages", (0, 1, 3, 1000, 65_537))
def test_in_place_gather_draw_is_the_chained_one(pattern, n_pages):
    got_rng, expected_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = pattern.page_weights(n_pages, got_rng)
    expected = oracles.gather_weights(pattern, n_pages, expected_rng)
    assert got.tobytes() == expected.tobytes()
    assert got_rng.bit_generator.state == expected_rng.bit_generator.state


# -- the engine on runs --------------------------------------------------------------


@st.composite
def placements(draw, n_pages: int, n_tiers: int):
    """A monotone placement (first-touch, local, remote; freed pages first)."""
    cuts = sorted(draw(st.lists(st.integers(0, n_pages), min_size=n_tiers, max_size=n_tiers)))
    counts = np.diff([0] + cuts + [n_pages])
    tiers = np.array([UNPLACED] + list(range(n_tiers)), dtype=np.int8)
    return np.repeat(tiers, counts)


@given(
    pattern=st.sampled_from(UNIFORM + HOT_COLD),
    n_pages=st.integers(1, 5000),
    n_tiers=st.integers(1, 3),
    data=st.data(),
)
def test_tier_weights_on_runs_are_the_masked_dense_sums(pattern, n_pages, n_tiers, data):
    placement = data.draw(placements(n_pages, n_tiers))
    runs = pattern.page_runs(n_pages)
    dense = _dense_oracle(pattern, n_pages)

    def bits(parts):
        return [(tier, _bits(weight)) for tier, weight in parts]

    expected = oracles.masked_tier_weights(placement, dense, n_tiers)
    assert bits(_tier_weights(placement, runs, n_tiers)) == bits(expected)
    # An interleaved placement takes the masked path, from expanded runs.
    shuffled = np.random.default_rng(n_pages).permutation(placement)
    expected = oracles.masked_tier_weights(shuffled, dense, n_tiers)
    assert bits(_tier_weights(shuffled, runs, n_tiers)) == bits(expected)


def test_run_patterns_are_read_as_runs_and_counted():
    from repro import telemetry

    rng = np.random.default_rng(0)
    with telemetry.isolated(True) as registry:
        with engine_module.sharing_draws({}):
            runs = _page_weights(HotColdPattern(), 10, rng)
            dense = _page_weights(ZipfPattern(), 10, rng)
    assert runs == HotColdPattern().page_runs(10)
    assert isinstance(dense, np.ndarray) and len(dense) == 10
    assert registry.counter("engine.draws").value == 2


@pytest.fixture
def dense_formulas(monkeypatch):
    """Every pattern's ``page_weights`` as the dense formula it used to be."""
    for cls in UNIFORM:
        monkeypatch.setattr(
            type(cls), "page_weights", lambda self, n, rng: oracles.uniform_weights(n)
        )
    monkeypatch.setattr(
        HotColdPattern, "page_weights", lambda self, n, rng: oracles.hot_cold_weights(self, n)
    )
    monkeypatch.setattr(
        ZipfPattern, "page_weights", lambda self, n, rng: oracles.zipf_weights(self.alpha, n, rng)
    )
    monkeypatch.setattr(
        GatherPattern, "page_weights", lambda self, n, rng: oracles.gather_weights(self, n, rng)
    )


@pytest.mark.parametrize("name", workload_names())
def test_plans_and_profiles_from_runs_are_the_dense_ones(name, dense_formulas):
    # The engine reads runs (page_runs); the live oracles read the dense
    # formulas through page_weights.
    spec = build_workload(name)
    for platform in (
        Platform.local_only(),
        Platform.pooled(spec.footprint_bytes, 0.75),
        Platform.pooled(spec.footprint_bytes, 0.25),
    ):
        engine = ExecutionEngine(platform, seed=1)
        assert repr(engine.run(spec)) == repr(engine_oracles.run(engine, spec))
    engine = ExecutionEngine(Platform.local_only(), seed=1)
    got = engine.access_profile(spec)
    expected = engine_oracles.access_profile(engine, spec)
    assert np.array_equal(got.page_ids, expected.page_ids)
    assert got.counts.tobytes() == expected.counts.tobytes()


@dataclass(frozen=True)
class DenseOnly:
    """A pattern with page weights but no runs: the engine draws it dense."""

    stream_fraction: float = 0.4

    def page_weights(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        weights = rng.random(n_pages)
        return weights / weights.sum()


def test_a_dense_only_pattern_still_plans_and_profiles():
    spec = WorkloadSpec(
        name="dense-only",
        input_label="",
        scale=1.0,
        objects=(
            MemoryObject("a", 300 * PAGE, pattern=DenseOnly()),
            MemoryObject("b", 200 * PAGE, pattern=HotColdPattern(), placement="interleave"),
        ),
        phases=(
            PhaseSpec("p1", flops=1e9, dram_bytes=1e8, object_traffic={"a": 0.7, "b": 0.3}),
            PhaseSpec("p2", flops=2e9, dram_bytes=3e8, object_traffic={"a": 0.2, "b": 0.8}),
        ),
    )
    for platform in (Platform.local_only(), Platform.pooled(spec.footprint_bytes, 0.5)):
        engine = ExecutionEngine(platform, seed=2)
        assert repr(engine.run(spec)) == repr(engine_oracles.run(engine, spec))
    engine = ExecutionEngine(Platform.local_only(), seed=2)
    got = engine.access_profile(spec)
    expected = engine_oracles.access_profile(engine, spec)
    assert got.counts.tobytes() == expected.counts.tobytes()
