"""Level 1 profiling: general (system-independent) application characteristics.

The first level of the paper's methodology captures an application's intrinsic
requirements on the memory subsystem — properties that are preserved across
memory-system configurations (Section 3.1, "Level 1"):

* arithmetic intensity and achieved throughput (roofline placement, Figure 5),
* memory capacity usage (peak RSS: the workload's footprint),
* memory bandwidth usage,
* the access-pattern distribution over the footprint (the bandwidth-capacity
  scaling curve of Figure 6), and
* hardware-prefetching suitability: accuracy, coverage, excessive traffic and
  performance gain (Figures 7 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..cache import events
from ..cache.hierarchy import CacheHierarchyModel
from ..sim.engine import ExecutionEngine
from ..sim.platform import Platform
from ..sim.results import RunResult
from ..trace.footprint import ScalingCurve, scaling_curve_from_pieces
from ..workloads.base import WorkloadSpec


@dataclass(frozen=True)
class PhaseCharacteristics:
    """Level-1 metrics of one phase."""

    phase: str
    arithmetic_intensity: float
    achieved_gflops: float
    achieved_bandwidth_gbs: float
    dram_bytes: float
    runtime: float


@dataclass(frozen=True)
class PrefetchReport:
    """Prefetching suitability of one application (Figure 8).

    ``performance_gain`` is the relative slowdown of running with hardware
    prefetching disabled: (runtime_without / runtime_with) - 1.
    """

    workload: str
    accuracy: float
    coverage: float
    excess_traffic: float
    performance_gain: float
    traffic_with_prefetch: float
    traffic_without_prefetch: float


@dataclass(frozen=True)
class Level1Profile:
    """Full Level-1 profile of one workload on a local-only system."""

    workload: str
    input_label: str
    footprint_bytes: int
    phases: tuple[PhaseCharacteristics, ...]
    scaling_curve: ScalingCurve
    prefetch: PrefetchReport
    total_runtime: float

    @property
    def peak_rss_gib(self) -> float:
        """Peak resident set size in GiB."""
        return self.footprint_bytes / 2**30

    def phase_points(self) -> list[tuple[str, float, float]]:
        """(label, arithmetic intensity, Gflop/s) points for the roofline plot."""
        return [
            (f"{self.workload}-{p.phase}", p.arithmetic_intensity, p.achieved_gflops)
            for p in self.phases
        ]


def _scaling_curve(engine: ExecutionEngine, spec: WorkloadSpec) -> ScalingCurve:
    """The bandwidth-capacity scaling curve of ``spec``'s access counts, read as pieces."""
    return scaling_curve_from_pieces([piece for _, piece in engine.access_pieces(spec)])


class Level1Profiler:
    """Runs a workload on a local-only platform and extracts Level-1 metrics."""

    def __init__(self, platform: Optional[Platform] = None, seed: int = 0) -> None:
        self.platform = platform if platform is not None else Platform.local_only()
        self.seed = seed

    def profile(self, spec: WorkloadSpec) -> Level1Profile:
        """Produce the complete Level-1 profile of one workload."""
        engine = ExecutionEngine(self.platform, seed=self.seed)
        with_pf = engine.run(spec, prefetch_enabled=True)
        without_pf = engine.run(spec, prefetch_enabled=False)
        curve = _scaling_curve(engine, spec)

        phases = tuple(
            PhaseCharacteristics(
                phase=p.name,
                arithmetic_intensity=p.arithmetic_intensity,
                achieved_gflops=p.achieved_flops / 1e9,
                achieved_bandwidth_gbs=p.achieved_bandwidth / 1e9,
                dram_bytes=p.dram_bytes,
                runtime=p.runtime,
            )
            for p in with_pf.phases
        )
        prefetch = self.prefetch_report(spec, with_pf, without_pf)
        return Level1Profile(
            workload=spec.name,
            input_label=spec.input_label,
            footprint_bytes=spec.footprint_bytes,
            phases=phases,
            scaling_curve=curve,
            prefetch=prefetch,
            total_runtime=with_pf.total_runtime,
        )

    def prefetch_report(
        self, spec: WorkloadSpec, with_pf: RunResult, without_pf: RunResult
    ) -> PrefetchReport:
        """Prefetch accuracy/coverage/excess-traffic/gain from two runs (Eq. 1-2)."""
        counters = with_pf.counters
        accuracy = CacheHierarchyModel.accuracy_from_counters(counters)
        coverage = CacheHierarchyModel.coverage_from_counters(counters)
        traffic_with = counters[events.L2_LINES_IN]
        traffic_without = without_pf.counters[events.L2_LINES_IN]
        excess = (traffic_with - traffic_without) / traffic_without if traffic_without > 0 else 0.0
        gain = (
            without_pf.total_runtime / with_pf.total_runtime - 1.0
            if with_pf.total_runtime > 0
            else 0.0
        )
        return PrefetchReport(
            workload=spec.name,
            accuracy=accuracy,
            coverage=coverage,
            excess_traffic=max(excess, 0.0),
            performance_gain=gain,
            traffic_with_prefetch=traffic_with,
            traffic_without_prefetch=traffic_without,
        )

    def scaling_curves(
        self, specs: Sequence[WorkloadSpec]
    ) -> dict[str, ScalingCurve]:
        """Bandwidth-capacity scaling curves for several inputs of one application.

        Returns a mapping from input label to curve — the ingredient of one
        panel of Figure 6.
        """
        engine = ExecutionEngine(self.platform, seed=self.seed)
        return {spec.input_label: _scaling_curve(engine, spec) for spec in specs}

    def prefetch_timeline(
        self, spec: WorkloadSpec, steps_per_phase: int = 40
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """L2 line-fill timelines with and without prefetching (Figure 7)."""
        engine = ExecutionEngine(self.platform, seed=self.seed)
        timelines = {}
        for label, enabled in (("with-prefetch", True), ("without-prefetch", False)):
            result = engine.run(spec, prefetch_enabled=enabled)
            timelines[label] = engine.l2_timeline(spec, result, steps_per_phase)
        return timelines
