"""Tests for LBench: injection, calibration and interference measurement."""

import numpy as np
import pytest

from repro.config import SKYLAKE_EMULATION, ConfigurationError
from repro.interconnect.link import RemoteLink
from repro.workloads.lbench import LBench, lbench_kernel


@pytest.fixture(scope="module")
def lbench():
    return LBench(SKYLAKE_EMULATION)


class TestKernel:
    def test_single_flop_is_one_add(self):
        a = np.array([1.0, 2.0])
        out = lbench_kernel(a, nflop=1, alpha=0.5)
        np.testing.assert_allclose(out, a + 0.5)

    def test_two_flops_is_one_fma(self):
        a = np.array([2.0])
        out = lbench_kernel(a, nflop=2, alpha=0.5)
        # beta starts at 0: 0*2+0.5
        np.testing.assert_allclose(out, [0.5])

    def test_three_flops(self):
        a = np.array([2.0])
        out = lbench_kernel(a, nflop=3, alpha=0.5)
        # add: 2.5, then fma: 2.5*2+0.5
        np.testing.assert_allclose(out, [5.5])

    def test_rejects_zero_flops(self):
        with pytest.raises(ConfigurationError):
            lbench_kernel(np.array([1.0]), nflop=0)


class TestTrafficGeneration:
    def test_bandwidth_decreases_with_flops(self, lbench):
        bw = [lbench.offered_bandwidth(n, threads=2) for n in (1, 8, 64, 512)]
        assert all(b >= a for a, b in zip(bw[::-1], bw[::-1][1:]))
        assert bw[0] > bw[-1]

    def test_twelve_threads_one_flop_saturate_link(self, lbench):
        measurement = lbench.measure(1, threads=12)
        assert measurement.loi == pytest.approx(100.0, abs=1.0)
        assert measurement.pcm_traffic == pytest.approx(SKYLAKE_EMULATION.link_peak_traffic)

    def test_two_threads_reach_about_half_intensity(self, lbench):
        assert lbench.generated_loi(1, threads=2) == pytest.approx(50.0, abs=5.0)

    def test_invalid_parameters(self, lbench):
        with pytest.raises(ConfigurationError):
            lbench.per_thread_bandwidth(0)
        with pytest.raises(ConfigurationError):
            lbench.offered_bandwidth(1, threads=0)
        with pytest.raises(ConfigurationError):
            LBench(kernel_flop_rate=0.0)


class TestCalibration:
    def test_calibration_round_trip(self, lbench):
        for loi in (10.0, 20.0, 30.0, 40.0):
            nflop = lbench.flops_for_loi(loi, threads=2)
            measured = lbench.generated_loi(nflop, threads=2)
            assert measured == pytest.approx(loi, rel=0.15)

    def test_calibrate_loi_mapping(self, lbench):
        table = lbench.calibrate_loi((10, 20, 30, 40, 50), threads=2)
        assert set(table) == {10.0, 20.0, 30.0, 40.0, 50.0}
        # Higher LoI needs fewer flops per element.
        assert table[10.0] > table[50.0]

    def test_intensity_sweep_is_monotone(self, lbench):
        sweep = lbench.intensity_sweep((10, 20, 30, 40, 50), threads=2)
        lois = [m.loi for m in sweep]
        assert all(b >= a - 1e-6 for a, b in zip(lois, lois[1:]))

    def test_invalid_loi(self, lbench):
        with pytest.raises(ConfigurationError):
            lbench.flops_for_loi(0.0)


class TestInterferenceMeasurement:
    def test_ic_is_one_on_idle_system(self, lbench):
        assert lbench.interference_coefficient(0.0) == pytest.approx(1.0)

    def test_ic_grows_with_background(self, lbench):
        ics = [lbench.interference_coefficient(bw) for bw in (0.0, 5e9, 15e9, 30e9, 60e9)]
        assert all(b >= a - 1e-9 for a, b in zip(ics, ics[1:]))
        assert ics[-1] > 1.3

    def test_ic_levels_off_once_the_link_is_full(self, lbench):
        capacity = lbench.link.data_capacity
        full = lbench.interference_coefficient(capacity)
        assert lbench.interference_coefficient(10 * capacity) == pytest.approx(full)
        assert full > lbench.interference_coefficient(0.25 * capacity)

    def test_probe_runtime_positive_and_scales_with_iterations(self, lbench):
        t1 = lbench.probe_runtime(0.0, iterations=10)
        t2 = lbench.probe_runtime(0.0, iterations=20)
        assert t2 == pytest.approx(2 * t1)
        with pytest.raises(ConfigurationError):
            lbench.probe_runtime(0.0, iterations=0)

    def test_contention_curve_shapes(self, lbench):
        curve = lbench.contention_curve([1, 2, 4, 8, 16, 32, 64, 128], threads=12)
        ic = [c["interference_coefficient"] for c in curve]
        pcm = [c["pcm_traffic"] for c in curve]
        # PCM saturates at high traffic (low flops/element)...
        assert pcm[0] == pytest.approx(SKYLAKE_EMULATION.link_peak_traffic)
        assert pcm[-1] < pcm[0]
        # ...while the IC keeps distinguishing load levels and decreases with NFLOP.
        assert ic[0] > ic[-1]
        assert ic[-1] >= 1.0

    def test_pcm_cannot_distinguish_beyond_saturation_but_ic_tracks_load(self, lbench):
        # The core LBench argument (Fig. 11 middle): below 8 flops/element the
        # PCM reading is identical while the probe still sees different loads.
        curve = lbench.contention_curve([1, 4], threads=12)
        assert curve[0]["pcm_traffic"] == pytest.approx(curve[1]["pcm_traffic"])
        assert curve[0]["background_bandwidth"] > curve[1]["background_bandwidth"]


def test_custom_link_is_used():
    link = RemoteLink(SKYLAKE_EMULATION)
    lbench = LBench(SKYLAKE_EMULATION, link=link)
    assert lbench.link is link
