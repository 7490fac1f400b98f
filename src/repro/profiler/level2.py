"""Level 2 profiling: multi-tier memory access.

The second level of the paper's methodology quantifies how an application's
memory traffic distributes over the tiers of a multi-tier memory system and
compares the measured access ratio against two reference points
(Section 5.1):

* R_cap — the tier's share of total memory capacity (the lower bound a
  balanced placement should at least reach), and
* R_BW — the tier's share of aggregate memory bandwidth (the upper bound
  beyond which the slow tier becomes the memory bottleneck).

The profiler reports, per phase, the remote capacity ratio (from the
numa_maps-equivalent placement state) and the remote access ratio (from the
LOCAL_DRAM / REMOTE_DRAM offcore counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..cache import events
from ..config.errors import ProfilerError
from ..sim.engine import ExecutionEngine
from ..sim.platform import Platform
from ..sim.results import RunResult
from ..workloads.base import WorkloadSpec


@dataclass(frozen=True)
class TierAccessReport:
    """Level-2 metrics for one phase on one tier configuration."""

    workload: str
    phase: str
    config_label: str
    remote_access_ratio: float
    remote_capacity_ratio: float
    remote_bandwidth_ratio: float
    local_bytes: float
    remote_bytes: float
    arithmetic_intensity: float

    @property
    def label(self) -> str:
        """The paper's ``App-pN`` label."""
        return f"{self.workload}-{self.phase}"

    @property
    def above_bandwidth_reference(self) -> bool:
        """True when remote accesses exceed R_BW — the slow tier is the bottleneck."""
        return self.remote_access_ratio > self.remote_bandwidth_ratio

    @property
    def below_capacity_reference(self) -> bool:
        """True when remote accesses are below R_cap — capacity headroom is unused."""
        return self.remote_access_ratio < self.remote_capacity_ratio

    @property
    def optimization_headroom(self) -> float:
        """Distance from the nearest reference band (0 when inside [R_cap-ish, R_BW]).

        The paper's guidance: access ratios should sit between the capacity
        ratio (lower bound) and the bandwidth ratio (upper bound); the
        distance outside that band measures how much data-placement tuning
        could still help (or how ill-balanced the tier design is).
        """
        low = min(self.remote_capacity_ratio, self.remote_bandwidth_ratio)
        high = max(self.remote_capacity_ratio, self.remote_bandwidth_ratio)
        if self.remote_access_ratio < low:
            return low - self.remote_access_ratio
        if self.remote_access_ratio > high:
            return self.remote_access_ratio - high
        return 0.0


@dataclass(frozen=True)
class Level2Profile:
    """Level-2 profile of one workload on one tiered configuration."""

    workload: str
    input_label: str
    config_label: str
    remote_capacity_ratio: float
    remote_bandwidth_ratio: float
    phases: tuple[TierAccessReport, ...]
    run: RunResult

    @property
    def overall_remote_access_ratio(self) -> float:
        """Traffic-weighted remote access ratio over the whole run."""
        return self.run.remote_access_ratio

    def phase_report(self, phase: str) -> TierAccessReport:
        """Look up the report of one phase."""
        for report in self.phases:
            if report.phase == phase:
                return report
        raise KeyError(f"no phase {phase!r} in this profile")


def pooled_platforms(
    spec: WorkloadSpec, local_fractions: Sequence[float]
) -> dict[str, Platform]:
    """One pooled platform per local fraction, keyed by its ``"75-25"`` label.

    The label rounds the split to whole percent.  Two fractions that round
    alike would share one key and silently lose a profile, so they raise
    :class:`ProfilerError` instead.
    """
    platforms: dict[str, Platform] = {}
    fractions: dict[str, float] = {}
    for fraction in local_fractions:
        platform = Platform.pooled(spec.footprint_bytes, fraction)
        if platform.label in platforms:
            raise ProfilerError(
                f"local fractions {fractions[platform.label]} and {fraction} both "
                f"give the {platform.label} split; profile them separately"
            )
        platforms[platform.label] = platform
        fractions[platform.label] = fraction
    return platforms


class Level2Profiler:
    """Runs a workload on pooled tier configurations and extracts Level-2 metrics."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def profile(
        self, spec: WorkloadSpec, platform: Platform
    ) -> Level2Profile:
        """Level-2 profile of ``spec`` on an explicit (pooled) platform."""
        if platform.tier_config is None:
            raise ProfilerError(
                "Level-2 profiling requires a platform with an explicit tier configuration"
            )
        engine = ExecutionEngine(platform, seed=self.seed)
        run = engine.run(spec)
        r_bw = platform.tier_config.remote_bandwidth_ratio
        phases = tuple(
            TierAccessReport(
                workload=spec.name,
                phase=p.name,
                config_label=platform.label,
                remote_access_ratio=p.remote_access_ratio,
                remote_capacity_ratio=run.remote_capacity_ratio,
                remote_bandwidth_ratio=r_bw,
                local_bytes=p.local_bytes,
                remote_bytes=p.remote_bytes,
                arithmetic_intensity=p.arithmetic_intensity,
            )
            for p in run.phases
        )
        return Level2Profile(
            workload=spec.name,
            input_label=spec.input_label,
            config_label=platform.label,
            remote_capacity_ratio=platform.tier_config.remote_capacity_ratio,
            remote_bandwidth_ratio=r_bw,
            phases=phases,
            run=run,
        )

    def profile_capacity_ratios(
        self,
        spec: WorkloadSpec,
        local_fractions: Sequence[float] = (0.75, 0.50, 0.25),
    ) -> dict[str, Level2Profile]:
        """Level-2 profiles over the paper's three capacity-ratio configurations."""
        return {
            label: self.profile(spec, platform)
            for label, platform in pooled_platforms(spec, local_fractions).items()
        }
