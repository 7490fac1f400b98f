"""Tests for the hardware prefetcher model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.testbed import PrefetcherConfig
from repro.cache.prefetcher import analyze_fraction, analyze_stream


CONFIG = PrefetcherConfig(enabled=True, degree=8, detection_window=3)


class TestAnalyzeStream:
    def test_sequential_stream_high_coverage_and_accuracy(self, rng):
        lines = np.arange(10_000, dtype=np.int64)
        outcome = analyze_stream(lines, None, CONFIG)
        assert outcome.coverage > 0.9
        assert outcome.accuracy > 0.9
        assert outcome.excess_traffic_fraction < 0.05

    def test_random_stream_low_coverage(self, rng):
        lines = rng.integers(0, 1 << 30, size=10_000)
        outcome = analyze_stream(lines, None, CONFIG)
        assert outcome.coverage < 0.2

    def test_disabled_prefetcher(self):
        lines = np.arange(1000, dtype=np.int64)
        outcome = analyze_stream(lines, None, CONFIG.disabled())
        assert outcome.prefetches_issued == 0
        assert outcome.coverage == 0.0
        assert outcome.accuracy == 0.0

    def test_write_fraction_splits_rfo(self):
        lines = np.arange(1000, dtype=np.int64)
        writes = np.zeros(1000, dtype=bool)
        writes[::2] = True
        outcome = analyze_stream(lines, writes, CONFIG)
        assert outcome.prefetches_rfo > 0
        assert outcome.prefetches_data_rd > 0
        assert outcome.prefetches_issued == outcome.prefetches_rfo + outcome.prefetches_data_rd

    def test_empty_stream(self):
        outcome = analyze_stream(np.array([], dtype=np.int64), None, CONFIG)
        assert outcome.demand_accesses == 0
        assert outcome.coverage == 0.0

    def test_strided_stream_detected(self):
        lines = np.arange(0, 4000, 2, dtype=np.int64)
        outcome = analyze_stream(lines, None, CONFIG, max_stride=4)
        assert outcome.coverage > 0.9

    def test_large_stride_not_detected(self):
        lines = np.arange(0, 200_000, 100, dtype=np.int64)
        outcome = analyze_stream(lines, None, CONFIG, max_stride=4)
        assert outcome.coverage < 0.1

    def test_detection_window_accesses_are_not_covered(self):
        outcome = analyze_stream(np.arange(20, dtype=np.int64), None, CONFIG)
        assert outcome.covered_accesses == 20 - CONFIG.detection_window
        # The stream is confirmed, so the prefetcher overshoots its end by `degree` lines.
        assert outcome.useless_prefetches == CONFIG.degree
        assert outcome.prefetches_issued == outcome.covered_accesses + CONFIG.degree

    def test_run_no_longer_than_the_window_issues_nothing(self):
        lines = np.arange(CONFIG.detection_window, dtype=np.int64)
        outcome = analyze_stream(lines, None, CONFIG)
        assert outcome.prefetches_issued == 0
        assert outcome.covered_accesses == 0

    def test_repeated_line_is_not_a_stream(self):
        outcome = analyze_stream(np.full(100, 7, dtype=np.int64), None, CONFIG)
        assert outcome.prefetches_issued == 0

    def test_descending_stream_detected(self):
        outcome = analyze_stream(np.arange(1000, dtype=np.int64)[::-1], None, CONFIG)
        assert outcome.coverage > 0.9

    def test_separate_streams_are_analysed_independently(self):
        first = np.arange(50, dtype=np.int64)
        second = np.arange(1 << 20, (1 << 20) + 30, dtype=np.int64)
        both = analyze_stream(np.concatenate([first, second]), None, CONFIG)
        alone = [analyze_stream(lines, None, CONFIG) for lines in (first, second)]
        assert both.covered_accesses == sum(o.covered_accesses for o in alone)
        assert both.useless_prefetches == sum(o.useless_prefetches for o in alone)


class TestAnalyzeFraction:
    def test_coverage_tracks_stream_fraction(self):
        outcome = analyze_fraction(10_000, 0.7, CONFIG)
        assert outcome.coverage == pytest.approx(0.7, abs=0.01)

    def test_accuracy_hint_controls_useless(self):
        outcome = analyze_fraction(10_000, 0.5, CONFIG, accuracy_hint=0.6)
        assert outcome.accuracy == pytest.approx(0.6, abs=0.05)
        assert outcome.excess_traffic_fraction == pytest.approx(0.5 * (1 - 0.6) / 0.6, rel=0.1)

    def test_zero_stream_fraction(self):
        outcome = analyze_fraction(10_000, 0.0, CONFIG)
        assert outcome.coverage == 0.0
        assert outcome.prefetches_issued == 0

    def test_disabled(self):
        outcome = analyze_fraction(10_000, 0.9, CONFIG.disabled())
        assert outcome.prefetches_issued == 0

    def test_write_fraction(self):
        outcome = analyze_fraction(10_000, 0.8, CONFIG, write_fraction=0.25)
        assert outcome.prefetches_rfo == pytest.approx(outcome.prefetches_issued * 0.25, rel=0.05)

    def test_longer_streams_waste_less(self):
        short = analyze_fraction(10_000, 0.1, CONFIG)
        long = analyze_fraction(10_000, 0.9, CONFIG)
        assert long.accuracy > short.accuracy
        assert long.accuracy > 0.9

    def test_no_accesses_issue_nothing(self):
        outcome = analyze_fraction(0, 0.5, CONFIG)
        assert outcome.demand_accesses == 0
        assert outcome.prefetches_issued == 0
        assert outcome.coverage == 0.0

    def test_stream_fraction_is_clipped(self):
        assert analyze_fraction(10_000, 1.5, CONFIG).coverage == 1.0
        assert analyze_fraction(10_000, -0.2, CONFIG).prefetches_issued == 0


# -- property-based invariants ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50_000),
    stream_fraction=st.floats(min_value=0.0, max_value=1.0),
    write_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_fraction_outcome_invariants(n, stream_fraction, write_fraction):
    outcome = analyze_fraction(n, stream_fraction, CONFIG, write_fraction=write_fraction)
    assert 0.0 <= outcome.coverage <= 1.0
    assert 0.0 <= outcome.accuracy <= 1.0
    assert outcome.useless_prefetches >= 0
    assert outcome.prefetches_issued >= outcome.useless_prefetches
    assert outcome.covered_accesses <= outcome.demand_accesses


@settings(max_examples=30, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=500),
)
def test_stream_outcome_invariants(lines):
    outcome = analyze_stream(np.array(lines, dtype=np.int64), None, CONFIG)
    assert 0.0 <= outcome.coverage <= 1.0
    assert 0.0 <= outcome.accuracy <= 1.0
    assert outcome.demand_accesses == len(lines)
    assert outcome.useful_prefetches >= 0
