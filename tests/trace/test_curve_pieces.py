"""The Level-1 curve from pieces against the page-length chain it replaces.

:func:`scaling_curve_from_pieces` sorts only the dense values, jumps the
cumulative sum across each constant run with :func:`run_partial_sums` and
takes the total from :func:`pairwise_sum` over the sorted pieces.  Each
must give the bits of the page-length arithmetic:

* the jump equals ``np.cumsum`` at every position asked for, over zeros,
  subnormals, huge and infinite values, exact half-ulp ties and values
  below half an ulp;
* ``pairwise_sum`` over runs and dense arrays (reversed views included)
  equals NumPy's sum of their concatenation;
* any mix of runs and dense pieces gives the curve ``chained_curve`` gives
  over the expanded counts, negative and NaN counts dropped alike;
* every Level-1 curve of the six applications equals the curve of the
  expanded access profile.

``HYPOTHESIS_PROFILE=nightly`` raises the example budget (conftest.py) and
the longest run.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import telemetry
from repro.profiler.level1 import Level1Profiler
from repro.sim import ExecutionEngine, Platform
from repro.trace.footprint import (
    run_partial_sums,
    scaling_curve_from_counts,
    scaling_curve_from_pieces,
)
from repro.trace.patterns import pairwise_sum
from repro.workloads import build_workload, workload_names

from test_footprint_in_place import chained_curve

#: The longest run the jump is checked on.
MAX_RUN = 10**6 if os.environ.get("HYPOTHESIS_PROFILE") == "nightly" else 10**5

INF = math.inf
SPECIAL = (0.0, -0.0, 5e-324, 3 * 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0 / 3.0,
           1.0, 3.0, 2.0**52, 1e300, 1.7976931348623157e308, INF)


def _bits(value: float) -> str:
    return float(value).hex()


@st.composite
def start_and_value(draw):
    """A start and an increment, often a tie or a sliver of the start's ulp."""
    start = draw(st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1e12), st.floats(0.0, 1e-305)))
    ulp = math.ulp(start) if math.isfinite(start) else 1.0
    value = draw(
        st.one_of(
            st.sampled_from(SPECIAL),
            st.floats(0.0, 1e6),
            # exact ties: k + 1/2 ulps of the start's binade (and of the next)
            st.integers(0, 9).map(lambda k: (k + 0.5) * ulp),
            st.integers(0, 9).map(lambda k: (k + 0.5) * 2 * ulp),
            # below half an ulp
            st.floats(0.0, 0.4999).map(lambda f: f * ulp),
            st.integers(1, 60).map(lambda j: ulp * 2.0**-j),
        )
    )
    return start, value


@given(pair=start_and_value(), data=st.data())
def test_the_jump_is_numpys_cumsum(pair, data):
    start, value = pair
    n = data.draw(st.one_of(st.integers(0, 300), st.integers(0, MAX_RUN)))
    counts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)) + [n])
    sequence = np.empty(n + 1)
    sequence[0] = start
    sequence[1:] = value
    with np.errstate(all="ignore"):
        expected = np.cumsum(sequence)[counts]
    got = run_partial_sums(start, value, counts)
    assert [_bits(x) for x in got] == [_bits(x) for x in expected]


@pytest.mark.parametrize("start", SPECIAL)
@pytest.mark.parametrize("value", SPECIAL)
def test_the_jump_over_every_special_pair(start, value):
    counts = [0, 1, 2, 7, 1000, 65_537]
    sequence = np.full(counts[-1] + 1, value)
    sequence[0] = start
    with np.errstate(all="ignore"):
        expected = np.cumsum(sequence)[counts]
    assert [_bits(x) for x in run_partial_sums(start, value, counts)] == [
        _bits(x) for x in expected
    ]


def test_the_jump_crosses_every_binade_of_a_long_run():
    # One ulp of 1.0 per step crosses no binade; a value of 1 from 0 crosses
    # twenty, and stagnates nowhere below 2**53.
    for start, value, n in ((1.0, 2.0**-52, 3 * 10**5), (0.0, 1.0, 3 * 10**5), (1e-310, 1e-311, 10**5)):
        sequence = np.full(n + 1, value)
        sequence[0] = start
        counts = list(range(0, n + 1, n // 97)) + [n]
        expected = np.cumsum(sequence)[counts]
        assert [_bits(x) for x in run_partial_sums(start, value, counts)] == [
            _bits(x) for x in expected
        ]


# -- pairwise sums of mixed pieces ---------------------------------------------------

DENSE_VALUES = st.one_of(
    st.floats(0.0, 1e3),
    st.sampled_from((0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300)),
)


@st.composite
def mixed_pieces(draw, allow_dropped: bool = False):
    """Runs and dense arrays; dense values often repeat a run's value."""
    values = st.one_of(DENSE_VALUES, st.sampled_from((-1.0, math.nan))) if allow_dropped else DENSE_VALUES
    shared = draw(st.lists(values, min_size=1, max_size=4))
    value = st.one_of(values, st.sampled_from(shared))
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            pages = draw(st.one_of(st.integers(0, 300), st.integers(0, 5000)))
            pieces.append((draw(value), pages))
        else:
            dense = np.array(draw(st.lists(value, max_size=400)), dtype=np.float64)
            pieces.append(dense[::-1] if draw(st.booleans()) else dense)
    return pieces


def _expanded(pieces) -> np.ndarray:
    parts = [np.full(p[1], p[0]) if isinstance(p, tuple) else p for p in pieces]
    return np.concatenate(parts) if parts else np.empty(0)


@given(pieces=mixed_pieces(), data=st.data())
def test_pairwise_sum_of_mixed_pieces_is_numpys_sum(pieces, data):
    dense = _expanded(pieces)
    start = data.draw(st.integers(0, len(dense)))
    stop = data.draw(st.integers(start, len(dense)))
    assert _bits(pairwise_sum(pieces, start, stop)) == _bits(float(np.add.reduce(dense[start:stop])))
    assert _bits(pairwise_sum(pieces)) == _bits(float(np.add.reduce(dense)))


# -- curves from mixed pieces --------------------------------------------------------


def _assert_curve_is_chained(pieces, n_points: int = 101) -> None:
    counts = _expanded(pieces)
    kept = [p.copy() for p in pieces if not isinstance(p, tuple)]
    with np.errstate(invalid="ignore"):
        curve = scaling_curve_from_pieces(pieces, n_points)
        pct, access = chained_curve(counts, n_points)
    assert curve.footprint_pct.tobytes() == pct.tobytes()
    assert curve.access_pct.tobytes() == access.tobytes()
    # The dense pieces are read, never written.
    assert all(
        a.tobytes() == b.tobytes()
        for a, b in zip(kept, (p for p in pieces if not isinstance(p, tuple)))
    )


@given(pieces=mixed_pieces(allow_dropped=True), n_points=st.sampled_from((0, 1, 2, 11, 101, 257)))
def test_mixed_pieces_give_the_chained_curve(pieces, n_points):
    _assert_curve_is_chained(pieces, n_points)


@given(seed=st.integers(0, 2**16), runs=st.integers(1, 6), scale=st.sampled_from((1e-300, 1.0, 1e300)))
def test_long_runs_among_skewed_draws(seed, runs, scale):
    rng = np.random.default_rng(seed)
    pieces = []
    for _ in range(runs):
        pieces.append(rng.pareto(1.1, size=int(rng.integers(0, 3000))) * scale)
        pieces.append((float(rng.pareto(1.1)) * scale, int(rng.integers(1, 200_000))))
    _assert_curve_is_chained(pieces)


@pytest.mark.parametrize(
    "pieces",
    [
        [],
        [(0.0, 10), np.zeros(3)],
        [(-1.0, 5), (math.nan, 5)],
        [(1.0, 0)],
        [(INF, 3), (1.0, 4)],
        [(1e300, 3), np.array([1e300, 1.0])],
        [(0.25, 8), np.array([0.25, 0.25, 0.5]), (0.25, 1)],
        [np.array([5, 1, 4])],  # integer counts
    ],
)
def test_edge_pieces(pieces):
    _assert_curve_is_chained(pieces)


def test_dense_counts_are_counted():
    with telemetry.isolated(True) as registry:
        scaling_curve_from_pieces([(1.0, 100), np.array([3.0, -1.0, 2.0]), np.ones(4)])
    assert registry.counter("footprint.dense_counts").value == 6


# -- every Level-1 curve -------------------------------------------------------------


@pytest.mark.parametrize("name", workload_names())
def test_every_level1_curve_is_the_curve_of_the_expanded_profile(name):
    for scale in (1, 2, 4):
        spec = build_workload(name, scale=scale)
        for seed in range(4):
            curve = Level1Profiler(seed=seed).scaling_curves([spec])[spec.input_label]
            engine = ExecutionEngine(Platform.local_only(), seed=seed)
            expected = scaling_curve_from_counts(engine.access_profile(spec).counts)
            assert curve.footprint_pct.tobytes() == expected.footprint_pct.tobytes()
            assert curve.access_pct.tobytes() == expected.access_pct.tobytes(), (scale, seed)
