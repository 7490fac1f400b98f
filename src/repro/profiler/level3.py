"""Level 3 profiling: memory interference on pool-based disaggregated memory.

The third level of the paper's methodology quantifies two complementary
aspects of memory interference (Section 6):

* **Sensitivity** — how much an application slows down when other nodes
  sharing the memory pool inject traffic.  Measured by running the
  application against LBench-generated interference at increasing Levels of
  Interference (LoI = 0, 10, ... 50) and normalising to the LoI = 0 runtime
  (Figure 10).
* **Interference coefficient (IC)** — how much interference the application
  itself causes, measured as the relative slowdown of a 1-thread 1-flop
  LBench probe co-running with the application (Figure 11, right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..cache import events
from ..config.errors import ProfilerError
from ..sim.engine import ExecutionEngine
from ..sim.interference import ConstantInterference
from ..sim.platform import Platform
from ..sim.results import RunResult
from ..workloads.base import WorkloadSpec
from ..workloads.lbench import LBench
from .level2 import pooled_platforms


@dataclass(frozen=True)
class SensitivityCurve:
    """Relative performance of one workload versus the injected LoI."""

    workload: str
    config_label: str
    loi_levels: tuple[float, ...]
    runtimes: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.loi_levels) != len(self.runtimes):
            raise ProfilerError("LoI levels and runtimes must have equal length")
        if not self.loi_levels or self.loi_levels[0] != 0.0:
            raise ProfilerError("the first LoI level must be 0 (the baseline)")
        # Interpolation and "the highest measured LoI" read the levels in order.
        if not all(b > a for a, b in zip(self.loi_levels, self.loi_levels[1:])):
            raise ProfilerError(f"LoI levels must increase, got {self.loi_levels}")
        # :meth:`slowdown_at` prices every scheduled job: convert the tuples
        # once.  Not fields, so equality, hashing and ``replace`` ignore them.
        for name, values in (("_lois", self.loi_levels), ("_runtimes", self.runtimes)):
            array = np.asarray(values, dtype=np.float64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def baseline_runtime(self) -> float:
        """Runtime at LoI = 0."""
        return self.runtimes[0]

    @property
    def relative_performance(self) -> tuple[float, ...]:
        """Runtime(LoI=0) / runtime(LoI) for every level — the paper's y-axis."""
        base = self.baseline_runtime
        return tuple(base / r if r > 0 else 0.0 for r in self.runtimes)

    def slowdown_at(self, loi: float) -> float:
        """Interpolated relative slowdown (>= 1) at an arbitrary LoI."""
        runtime = float(np.interp(loi, self._lois, self._runtimes))
        return runtime / self.baseline_runtime if self.baseline_runtime > 0 else 1.0

    @property
    def max_performance_loss(self) -> float:
        """Performance loss at the highest measured LoI (1 - relative performance)."""
        return 1.0 - self.relative_performance[-1]


@dataclass(frozen=True)
class InterferenceReport:
    """Level-3 metrics of one workload on one pooled configuration."""

    workload: str
    config_label: str
    sensitivity: SensitivityCurve
    interference_coefficient: float
    phase_interference_coefficients: tuple[tuple[str, float], ...]
    remote_bandwidth_demand: float
    link_traffic_bytes: float
    #: Average LoI this application's own traffic generates on the link: the
    #: LoI of ``remote_bandwidth_demand``, as the fabric's job profiles
    #: measure it (:func:`~repro.scheduler.progress.fabric_job_profile`).
    induced_loi: float


class Level3Profiler:
    """Measures interference sensitivity and interference coefficients."""

    #: The LoI sweep used by the paper (Figure 10).
    DEFAULT_LOI_LEVELS: tuple[float, ...] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # -- sensitivity ------------------------------------------------------------------

    def sensitivity(
        self,
        spec: WorkloadSpec,
        platform: Platform,
        loi_levels: Sequence[float] = DEFAULT_LOI_LEVELS,
    ) -> SensitivityCurve:
        """Runtime of ``spec`` under each injected LoI on ``platform``."""
        return self._sweep(spec, platform, loi_levels)[0]

    def _sweep(
        self, spec: WorkloadSpec, platform: Platform, loi_levels: Sequence[float]
    ) -> tuple[SensitivityCurve, RunResult]:
        """The sensitivity curve and its LoI-0 (interference-free) run."""
        if platform.tier_config is None:
            raise ProfilerError("Level-3 profiling requires a pooled platform")
        # The LoI-0 baseline first, then each other level once, in order.
        levels = tuple(sorted({0.0, *(float(l) for l in loi_levels)}))
        engine = ExecutionEngine(platform, seed=self.seed)
        runs = [
            engine.run(spec, interference=ConstantInterference(loi) if loi > 0 else None)
            for loi in levels
        ]
        curve = SensitivityCurve(
            workload=spec.name,
            config_label=platform.label,
            loi_levels=levels,
            runtimes=tuple(run.total_runtime for run in runs),
        )
        return curve, runs[0]

    def sensitivity_across_configs(
        self,
        spec: WorkloadSpec,
        local_fractions: Sequence[float] = (0.75, 0.50, 0.25),
        loi_levels: Sequence[float] = DEFAULT_LOI_LEVELS,
    ) -> dict[str, SensitivityCurve]:
        """Sensitivity curves on the paper's three capacity-ratio configurations."""
        return {
            label: self.sensitivity(spec, platform, loi_levels)
            for label, platform in pooled_platforms(spec, local_fractions).items()
        }

    # -- interference coefficient -------------------------------------------------------

    def interference_coefficient(
        self,
        spec: WorkloadSpec,
        platform: Platform,
        lbench: Optional[LBench] = None,
        loi_levels: Sequence[float] = DEFAULT_LOI_LEVELS,
    ) -> InterferenceReport:
        """IC of ``spec``: slowdown of the LBench probe co-running with it.

        The report also carries the sensitivity curve over ``loi_levels``;
        the IC is read from that sweep's interference-free LoI-0 run.
        """
        sensitivity, run = self._sweep(spec, platform, loi_levels)
        probe = lbench if lbench is not None else LBench(platform.testbed, platform.link)

        phase_ics = []
        total_time = max(run.total_runtime, 1e-12)
        weighted_ic = 0.0
        for phase in run.phases:
            ic = probe.interference_coefficient(phase.remote_bandwidth_demand)
            phase_ics.append((phase.name, ic))
            weighted_ic += ic * phase.runtime / total_time

        remote_bandwidth_demand = run.total_remote_bytes / total_time
        return InterferenceReport(
            workload=spec.name,
            config_label=platform.label,
            sensitivity=sensitivity,
            interference_coefficient=weighted_ic,
            phase_interference_coefficients=tuple(phase_ics),
            remote_bandwidth_demand=remote_bandwidth_demand,
            link_traffic_bytes=run.counters[events.UPI_TRAFFIC_BYTES],
            induced_loi=platform.link.loi(remote_bandwidth_demand),
        )

    def interference_coefficients(
        self,
        specs: Sequence[WorkloadSpec],
        local_fraction: float = 0.50,
    ) -> dict[str, InterferenceReport]:
        """IC of several workloads on the paper's 50% memory pooling setup, by
        application: two inputs of one raise :class:`ProfilerError`."""
        names = [spec.name for spec in specs]
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            raise ProfilerError(f"inputs of {', '.join(twice)} would share a report")
        reports = {}
        for spec in specs:
            platform = Platform.pooled(spec.footprint_bytes, local_fraction)
            reports[spec.name] = self.interference_coefficient(spec, platform)
        return reports
