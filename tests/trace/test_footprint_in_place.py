"""The in-place Level-1 scaling curve against the array chain it replaced.

:func:`scaling_curve_from_counts` copies the counts only when it must drop
some, and writes the cumulative sum, the normalisation and the x100 into
one array.  The curve must keep the bits of the concatenate / divide /
multiply chain kept here as :func:`chained_curve`.  No benchmark digest
covers the Level-1 curve, so this suite is its proof.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace.footprint import scaling_curve_from_counts


def chained_curve(counts, n_points: int = 101):
    """``scaling_curve_from_counts`` as it was: (footprint_pct, access_pct)."""
    counts = np.asarray(counts, dtype=np.float64)
    counts = counts[counts >= 0]
    if len(counts) == 0 or counts.sum() <= 0:
        pct = np.linspace(0.0, 100.0, n_points)
        return pct, pct.copy()
    ordered = np.sort(counts)[::-1]
    cum_access = np.concatenate([[0.0], np.cumsum(ordered)]) / ordered.sum() * 100.0
    cum_footprint = np.linspace(0.0, 100.0, len(ordered) + 1)
    pct = np.linspace(0.0, 100.0, n_points)
    access = np.interp(pct, cum_footprint, cum_access)
    return pct, access


def _assert_same_curve(counts, n_points: int = 101):
    before = np.array(counts, dtype=np.float64, copy=True)
    # Infinite counts make inf / inf: both sides warn alike.
    with np.errstate(invalid="ignore"):
        curve = scaling_curve_from_counts(counts, n_points=n_points)
        pct, access = chained_curve(before, n_points=n_points)
    assert curve.footprint_pct.tobytes() == pct.tobytes()
    assert curve.access_pct.tobytes() == access.tobytes()
    # The caller's counts are left as they were.
    assert np.asarray(counts, dtype=np.float64).tobytes() == before.tobytes()


counts_strategy = st.lists(
    st.one_of(
        st.floats(0.0, 1e6),
        st.floats(-1e6, 1e6),
        st.sampled_from((0.0, -0.0, 1e-300, 5e-324, 1e300, -1.0, np.inf, np.nan)),
    ),
    max_size=300,
)


@given(counts=counts_strategy, n_points=st.sampled_from((2, 11, 101, 257)))
def test_curve_keeps_the_bits_of_the_chained_curve(counts, n_points):
    _assert_same_curve(np.array(counts, dtype=np.float64), n_points)


@given(seed=st.integers(0, 2**16), n=st.integers(1, 5000), scale=st.sampled_from((1e-300, 1.0, 1e300)))
def test_random_arrays_keep_their_bits(seed, n, scale):
    rng = np.random.default_rng(seed)
    _assert_same_curve(rng.pareto(1.1, size=n) * scale)


@pytest.mark.parametrize(
    "counts",
    [
        [],
        [0.0, 0.0, 0.0],
        [-1.0, -2.0],
        [1e-300] * 7,
        [1e300, 1e300, 1.0],
        [1e300] * 3,
        [3.0, -1.0, 0.0, 2.0, np.nan, 1.0],
        [5, 1, 4],  # integer counts
    ],
)
def test_edge_cases_keep_their_bits(counts):
    _assert_same_curve(counts)
    _assert_same_curve(np.asarray(counts))
