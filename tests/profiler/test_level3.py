"""Tests for Level-3 profiling (interference sensitivity and coefficient)."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import telemetry
from repro.config.errors import ProfilerError
from repro.profiler import level3
from repro.profiler.level3 import Level3Profiler, SensitivityCurve
from repro.profiler.profiler import MultiLevelProfiler
from repro.scheduler.progress import fabric_job_profile
from repro.sim.platform import Platform
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def profiler():
    return Level3Profiler(seed=0)


@pytest.fixture(scope="module")
def hypre_platform(hypre_spec):
    return Platform.pooled(hypre_spec.footprint_bytes, 0.5)


class TestSensitivityCurve:
    def test_requires_pooled_platform(self, profiler, hypre_spec):
        with pytest.raises(ProfilerError):
            profiler.sensitivity(hypre_spec, Platform.local_only())

    def test_curve_structure(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform, (0, 25, 50))
        assert curve.loi_levels == (0.0, 25.0, 50.0)
        assert curve.baseline_runtime == curve.runtimes[0]
        assert curve.relative_performance[0] == pytest.approx(1.0)

    def test_performance_degrades_with_loi(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform)
        rel = curve.relative_performance
        assert all(b <= a + 1e-9 for a, b in zip(rel, rel[1:]))
        assert curve.max_performance_loss > 0.02

    def test_slowdown_interpolation(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform, (0, 50))
        assert curve.slowdown_at(0.0) == pytest.approx(1.0)
        assert 1.0 <= curve.slowdown_at(25.0) <= curve.slowdown_at(50.0)

    def test_slowdown_is_the_reciprocal_of_relative_performance(self):
        curve = SensitivityCurve("w", "c", (0.0, 10.0, 20.0), (2.0, 2.5, 3.0))
        for loi, relative in zip(curve.loi_levels, curve.relative_performance):
            assert curve.slowdown_at(loi) == pytest.approx(1.0 / relative)

    def test_slowdown_is_flat_beyond_the_last_level(self):
        curve = SensitivityCurve("w", "c", (0.0, 50.0), (2.0, 3.0))
        assert curve.slowdown_at(80.0) == curve.slowdown_at(50.0) == pytest.approx(1.5)

    def test_slowdown_converts_no_tuple_per_call(self, monkeypatch):
        curve = SensitivityCurve("w", "c", (0.0, 10.0, 20.0), (2.0, 2.5, 3.0))
        converted = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def asarray(self, *args, **kwargs):
                converted.append(args)
                return np.asarray(*args, **kwargs)

            array = asarray

        monkeypatch.setattr(level3, "np", CountingNumpy())
        for loi in (0.0, 5.0, 20.0, 35.0):
            curve.slowdown_at(loi)
        assert converted == []

    @given(
        levels=st.lists(st.floats(0.5, 100.0), min_size=1, max_size=6, unique=True),
        runtimes=st.lists(st.floats(1e-3, 1e4), min_size=7, max_size=7),
        lois=st.lists(st.floats(-10.0, 200.0), min_size=1, max_size=10),
    )
    def test_slowdown_is_the_per_call_conversion_it_replaces(self, levels, runtimes, lois):
        levels = (0.0, *sorted(levels))
        runtimes = tuple(runtimes[: len(levels)])
        curve = SensitivityCurve("w", "c", levels, runtimes)
        for loi in lois:
            lois_array = np.asarray(curve.loi_levels, dtype=np.float64)
            runtimes_array = np.asarray(curve.runtimes, dtype=np.float64)
            expected = float(np.interp(loi, lois_array, runtimes_array)) / curve.baseline_runtime
            assert curve.slowdown_at(loi) == expected

    def test_curve_stays_a_plain_value(self):
        curve = SensitivityCurve("w", "c", (0.0, 10.0, 20.0), (2.0, 2.5, 3.0))
        twin = SensitivityCurve("w", "c", (0.0, 10.0, 20.0), (2.0, 2.5, 3.0))
        assert curve == twin and hash(curve) == hash(twin)
        assert repr(curve) == repr(twin)
        copy = pickle.loads(pickle.dumps(curve))
        assert copy == curve and copy.slowdown_at(15.0) == curve.slowdown_at(15.0)
        slower = dataclasses.replace(curve, runtimes=(2.0, 3.0, 4.0))
        assert slower != curve
        assert slower.slowdown_at(10.0) == 1.5 and curve.slowdown_at(10.0) == 1.25
        with pytest.raises(ValueError):
            curve._lois[0] = 1.0

    def test_compute_bound_app_absorbs_interference(self, profiler, hypre_spec):
        hpl = build_workload("HPL", 1.0)
        loss = {
            spec.name: profiler.sensitivity(
                spec, Platform.pooled(spec.footprint_bytes, 0.25), (0, 50)
            ).max_performance_loss
            for spec in (hpl, hypre_spec)
        }
        assert loss["HPL"] < 0.01
        assert loss["HPL"] < loss["Hypre"]

    def test_missing_baseline_level_is_added(self, profiler, hypre_spec, hypre_platform):
        curve = profiler.sensitivity(hypre_spec, hypre_platform, (10, 30))
        assert curve.loi_levels[0] == 0.0

    def test_curve_validation(self):
        with pytest.raises(ProfilerError):
            SensitivityCurve("w", "c", (10.0, 20.0), (1.0, 2.0))
        with pytest.raises(ProfilerError):
            SensitivityCurve("w", "c", (0.0, 20.0), (1.0,))
        # Interpolation needs increasing levels.
        for levels in ((0.0, 30.0, 10.0), (0.0, 10.0, 10.0)):
            with pytest.raises(ProfilerError, match="must increase"):
                SensitivityCurve("w", "c", levels, (1.0, 2.0, 3.0))

    def test_levels_out_of_order_are_sorted(self):
        spec = build_workload("SuperLU")
        profiler = MultiLevelProfiler(seed=0)
        ordered = profiler.level3(spec, loi_levels=(0, 10, 30)).sensitivity
        for levels in ((0, 30, 10), (30, 10, 30, 0), (10, 30)):
            assert profiler.level3(spec, loi_levels=levels).sensitivity == ordered
        # The measured LoI-10 point, not an interpolation across LoI 30.
        curve = profiler.level3(spec, loi_levels=(0, 30, 10)).sensitivity
        assert curve.slowdown_at(10.0) == ordered.runtimes[1] / ordered.runtimes[0]
        assert curve.max_performance_loss == 1.0 - ordered.runtimes[0] / ordered.runtimes[2]

    def test_fractions_that_share_a_split_label_are_rejected(self):
        spec = build_workload("SuperLU")
        with pytest.raises(ProfilerError, match=r"0\.5 and 0\.504 .*50-50"):
            MultiLevelProfiler(seed=0).level3_sensitivity(spec, (0.5, 0.504))

    def test_across_configs(self, profiler, hypre_spec):
        curves = profiler.sensitivity_across_configs(hypre_spec, (0.75, 0.25), (0, 50))
        assert set(curves) == {"75-25", "25-75"}
        # Less local capacity -> more remote access -> more sensitive.
        assert curves["25-75"].max_performance_loss >= curves["75-25"].max_performance_loss


class TestInterferenceCoefficient:
    def test_report_contents(self, profiler, hypre_spec, hypre_platform):
        report = profiler.interference_coefficient(hypre_spec, hypre_platform)
        assert report.interference_coefficient >= 1.0
        assert report.remote_bandwidth_demand > 0
        assert report.link_traffic_bytes > 0
        assert dict(report.phase_interference_coefficients).keys() == {"p1", "p2"}

    def test_report_ic_lies_between_its_phase_ics(self, profiler, hypre_spec, hypre_platform):
        report = profiler.interference_coefficient(hypre_spec, hypre_platform, loi_levels=(0,))
        phase_ics = [ic for _, ic in report.phase_interference_coefficients]
        assert min(phase_ics) - 1e-12 <= report.interference_coefficient <= max(phase_ics) + 1e-12

    def test_memory_bound_apps_cause_more_interference(self, profiler):
        specs = [build_workload(name, 1.0) for name in ("Hypre", "XSBench")]
        reports = profiler.interference_coefficients(specs, local_fraction=0.5)
        assert (
            reports["Hypre"].interference_coefficient
            > reports["XSBench"].interference_coefficient
        )
        assert reports["XSBench"].interference_coefficient == pytest.approx(1.0, abs=0.05)

    def test_requires_pooled_platform(self, profiler, hypre_spec):
        with pytest.raises(ProfilerError):
            profiler.interference_coefficient(hypre_spec, Platform.local_only())

    def test_two_inputs_of_one_application_raise(self, profiler):
        """Reports are keyed by application, so a second input of one would
        replace the first's report without a word."""
        specs = [build_workload("BFS", 1.0), build_workload("BFS", 2.0)]
        with pytest.raises(ProfilerError, match="BFS"):
            profiler.interference_coefficients(specs)

    @pytest.mark.parametrize("name", ["HPL", "XSBench", "BFS"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_induced_loi_is_the_fabric_profile_loi(self, name, seed):
        spec = build_workload(name)
        report = MultiLevelProfiler(seed=seed).level3(spec, local_fraction=0.5)
        assert report.induced_loi > 0.0
        assert report.induced_loi == fabric_job_profile(spec, 0.5, seed=seed).induced_loi

    def test_ic_reads_the_loi_zero_run_of_its_own_sweep(self, hypre_spec, hypre_platform):
        profiler = Level3Profiler(seed=0)
        with telemetry.isolated(True) as registry:
            report = profiler.interference_coefficient(hypre_spec, hypre_platform)
        assert registry.counter("engine.runs").value == len(Level3Profiler.DEFAULT_LOI_LEVELS)
        assert report.sensitivity == profiler.sensitivity(hypre_spec, hypre_platform)

    def test_custom_levels_run_only_those_levels(self, hypre_spec):
        profiler = MultiLevelProfiler(seed=0)
        with telemetry.isolated(True) as registry:
            custom = profiler.level3(hypre_spec, loi_levels=(0, 25, 50))
        assert registry.counter("engine.runs").value == 3
        default = profiler.level3(hypre_spec)
        assert custom.sensitivity.loi_levels == (0.0, 25.0, 50.0)
        assert custom.sensitivity.runtimes[0] == default.sensitivity.runtimes[0]
        assert custom.interference_coefficient == default.interference_coefficient
        assert custom.phase_interference_coefficients == default.phase_interference_coefficients
        assert custom.link_traffic_bytes == default.link_traffic_bytes
