"""Tests for Level-2 profiling (multi-tier access ratios)."""

import pytest

from repro import telemetry
from repro.config.errors import ProfilerError
from repro.profiler.level2 import Level2Profiler
from repro.profiler.profiler import MultiLevelProfiler
from repro.sim.platform import Platform
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def profiler():
    return Level2Profiler(seed=0)


def test_requires_pooled_platform(profiler, hypre_spec):
    with pytest.raises(ProfilerError):
        profiler.profile(hypre_spec, Platform.local_only())


def test_profile_reports_reference_points(profiler, hypre_spec):
    platform = Platform.pooled(hypre_spec.footprint_bytes, 0.5)
    profile = profiler.profile(hypre_spec, platform)
    assert profile.remote_capacity_ratio == pytest.approx(0.5, abs=0.05)
    assert profile.remote_bandwidth_ratio == pytest.approx(34 / 107, abs=0.01)
    assert profile.config_label == "50-50"
    assert 0.0 < profile.overall_remote_access_ratio < 1.0
    assert profile.phase_report("p2").label == "Hypre-p2"
    with pytest.raises(KeyError):
        profile.phase_report("p7")


def test_uniform_workload_access_tracks_capacity_ratio(profiler, hypre_spec):
    """Hypre accesses memory uniformly, so its access ratio ~= the capacity ratio."""
    for fraction in (0.75, 0.50, 0.25):
        platform = Platform.pooled(hypre_spec.footprint_bytes, fraction)
        profile = profiler.profile(hypre_spec, platform)
        p2 = profile.phase_report("p2")
        assert p2.remote_access_ratio == pytest.approx(1.0 - fraction, abs=0.08)


def test_xsbench_remote_access_stays_low(profiler, xsbench_spec):
    """The paper: XSBench stays below ~6% remote access on every configuration."""
    for fraction in (0.75, 0.50, 0.25):
        platform = Platform.pooled(xsbench_spec.footprint_bytes, fraction)
        profile = profiler.profile(xsbench_spec, platform)
        assert profile.phase_report("p2").remote_access_ratio < 0.10


def test_remote_access_grows_as_local_capacity_shrinks(profiler, bfs_spec):
    ratios = []
    for fraction in (0.75, 0.50, 0.25):
        platform = Platform.pooled(bfs_spec.footprint_bytes, fraction)
        ratios.append(profiler.profile(bfs_spec, platform).overall_remote_access_ratio)
    assert ratios[0] < ratios[1] < ratios[2]


def test_reference_band_classification(profiler, hpl_spec):
    platform = Platform.pooled(hpl_spec.footprint_bytes, 0.25)
    profile = profiler.profile(hpl_spec, platform)
    p2 = profile.phase_report("p2")
    # HPL spills heavily at 25% local: accesses exceed the bandwidth ratio.
    assert p2.above_bandwidth_reference
    assert p2.optimization_headroom > 0
    # A phase inside the band has zero headroom by definition.
    assert p2.below_capacity_reference is (p2.remote_access_ratio < p2.remote_capacity_ratio)


def test_profile_capacity_ratios_helper(profiler, xsbench_spec):
    profiles = profiler.profile_capacity_ratios(xsbench_spec, (0.75, 0.5))
    assert set(profiles) == {"75-25", "50-50"}


def test_fractions_that_share_a_split_label_are_rejected():
    # 0.5 and 0.504 both label the "50-50" split: one profile would vanish.
    spec = build_workload("SuperLU")
    with telemetry.isolated(True) as registry:
        with pytest.raises(ProfilerError, match=r"0\.5 and 0\.504 .*50-50"):
            MultiLevelProfiler(seed=0).level2_sweep(spec, (0.5, 0.504))
    # Rejected before any engine run.
    assert registry.counter("engine.runs").value == 0
    assert set(Level2Profiler(seed=0).profile_capacity_ratios(spec, (0.5, 0.51))) == {
        "50-50",
        "51-49",
    }
