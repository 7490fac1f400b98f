"""The multi-level profiler facade.

The paper's profiler is an ``LD_PRELOAD`` library driven by environment
variables (``NMO_MODE=counters|sample|prefetch``, ``NMO_TRACK_RSS=1``) with a
small tracing API (``pf_start("tag")`` / ``pf_stop()``) to attribute results
to specific kernels (Figure 4 shows the full workflow).  This module provides
the equivalent front end for the simulator:

* :class:`MultiLevelProfiler` exposes ``level1`` / ``level2`` / ``level3``
  methods that mirror steps II, IV and V of the workflow, and
* :class:`RegionTracer` provides the ``pf_start`` / ``pf_stop`` tracing API
  for attributing user-defined regions (used by the examples to tag kernels).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..cache.events import CounterSet
from ..config.errors import ProfilerError
from ..sim.engine import sharing_draws
from ..sim.platform import Platform
from ..workloads.base import WorkloadSpec
from .level1 import Level1Profile, Level1Profiler
from .level2 import Level2Profile, Level2Profiler
from .level3 import InterferenceReport, Level3Profiler, SensitivityCurve


@dataclass
class TracedRegion:
    """A user-tagged region recorded through the ``pf_start``/``pf_stop`` API."""

    tag: str
    start_time: float
    stop_time: Optional[float] = None
    counters: CounterSet = field(default_factory=CounterSet)

    @property
    def elapsed(self) -> float:
        """Region duration (0 while still open)."""
        if self.stop_time is None:
            return 0.0
        return self.stop_time - self.start_time

    @property
    def closed(self) -> bool:
        """Whether pf_stop has been called for this region."""
        return self.stop_time is not None


class RegionTracer:
    """Simple tracing support: attribute measurements to named regions.

    Mirrors the paper's ``pf_start("tag")`` / ``pf_stop()`` API.  Regions may
    not overlap (the paper's profiler has the same restriction); re-using a
    tag accumulates into the same logical region name with an occurrence
    suffix.
    """

    def __init__(self) -> None:
        self._regions: list[TracedRegion] = []
        self._open: Optional[TracedRegion] = None
        self._clock = 0.0

    def advance_clock(self, seconds: float) -> None:
        """Advance the tracer's notion of time (simulated seconds)."""
        if seconds < 0:
            raise ProfilerError("cannot advance the clock backwards")
        self._clock += seconds

    def pf_start(self, tag: str) -> TracedRegion:
        """Open a region named ``tag`` at the current time."""
        if self._open is not None:
            raise ProfilerError(
                f"pf_start({tag!r}) while region {self._open.tag!r} is still open"
            )
        region = TracedRegion(tag=tag, start_time=self._clock)
        self._open = region
        return region

    def pf_stop(self, counters: Optional[CounterSet] = None) -> TracedRegion:
        """Close the currently open region, optionally attaching counters."""
        if self._open is None:
            raise ProfilerError("pf_stop() without a matching pf_start()")
        region = self._open
        region.stop_time = self._clock
        if counters is not None:
            region.counters = region.counters.merged(counters)
        self._regions.append(region)
        self._open = None
        return region

    @property
    def regions(self) -> tuple[TracedRegion, ...]:
        """All closed regions in order."""
        return tuple(self._regions)

    def region(self, tag: str) -> TracedRegion:
        """The first closed region with the given tag."""
        for region in self._regions:
            if region.tag == tag:
                return region
        raise KeyError(f"no traced region {tag!r}")

    def total_time(self, tag: str) -> float:
        """Total elapsed time across all occurrences of ``tag``."""
        return sum(r.elapsed for r in self._regions if r.tag == tag)


class MultiLevelProfiler:
    """Facade bundling the three profiling levels of the methodology.

    Typical usage mirrors the paper's workflow (Figure 4)::

        profiler = MultiLevelProfiler(seed=0)
        level1 = profiler.level1(spec)                       # step II
        level2 = profiler.level2(spec, local_fraction=0.5)   # steps III-IV
        level3 = profiler.level3(spec, local_fraction=0.5)   # step V

    Every level of one workload draws the same random page weights: the
    local-only plan, the access profile and the plan of each capacity split
    all consume the generator alike.  The profiler draws each such array
    once and keeps the draws of the workload it profiled last, dropping them
    when it moves on to another one.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.tracer = RegionTracer()
        #: The workload whose page-weight draws ``_draws`` holds.
        self._draws_of: Optional[WorkloadSpec] = None
        self._draws: dict = {}

    @contextmanager
    def _sharing_draws(self, spec: WorkloadSpec) -> Iterator[None]:
        """Share page-weight draws across this profiler's runs of ``spec``."""
        if spec is not self._draws_of:
            self._draws_of, self._draws = spec, {}
        with sharing_draws(self._draws):
            yield

    # -- level 1 -------------------------------------------------------------------

    def level1(self, spec: WorkloadSpec, platform: Optional[Platform] = None) -> Level1Profile:
        """General characteristics on a (by default) local-only system."""
        with self._sharing_draws(spec):
            return Level1Profiler(platform=platform, seed=self.seed).profile(spec)

    # -- level 2 -------------------------------------------------------------------

    def level2(
        self,
        spec: WorkloadSpec,
        local_fraction: float = 0.5,
        platform: Optional[Platform] = None,
    ) -> Level2Profile:
        """Multi-tier access ratios on a pooled system.

        ``local_fraction`` mirrors the paper's ``setup_waste`` step: the share
        of the workload's footprint that fits in node-local memory.
        """
        if platform is None:
            platform = Platform.pooled(spec.footprint_bytes, local_fraction)
        with self._sharing_draws(spec):
            return Level2Profiler(seed=self.seed).profile(spec, platform)

    def level2_sweep(
        self, spec: WorkloadSpec, local_fractions: Sequence[float] = (0.75, 0.50, 0.25)
    ) -> dict[str, Level2Profile]:
        """Level-2 profiles across the paper's three capacity-ratio setups."""
        with self._sharing_draws(spec):
            return Level2Profiler(seed=self.seed).profile_capacity_ratios(spec, local_fractions)

    # -- level 3 -------------------------------------------------------------------

    def level3(
        self,
        spec: WorkloadSpec,
        local_fraction: float = 0.5,
        loi_levels: Sequence[float] = Level3Profiler.DEFAULT_LOI_LEVELS,
        platform: Optional[Platform] = None,
    ) -> InterferenceReport:
        """Interference sensitivity and interference coefficient on a pooled system."""
        if platform is None:
            platform = Platform.pooled(spec.footprint_bytes, local_fraction)
        with self._sharing_draws(spec):
            return Level3Profiler(seed=self.seed).interference_coefficient(
                spec, platform, loi_levels=loi_levels
            )

    def level3_sensitivity(
        self,
        spec: WorkloadSpec,
        local_fractions: Sequence[float] = (0.75, 0.50, 0.25),
        loi_levels: Sequence[float] = Level3Profiler.DEFAULT_LOI_LEVELS,
    ) -> dict[str, SensitivityCurve]:
        """Sensitivity curves across the paper's three capacity-ratio setups."""
        with self._sharing_draws(spec):
            return Level3Profiler(seed=self.seed).sensitivity_across_configs(
                spec, local_fractions, loi_levels
            )

    # -- tracing API ---------------------------------------------------------------

    def pf_start(self, tag: str) -> TracedRegion:
        """Open a traced region (paper API)."""
        return self.tracer.pf_start(tag)

    def pf_stop(self, counters: Optional[CounterSet] = None) -> TracedRegion:
        """Close the current traced region (paper API)."""
        return self.tracer.pf_stop(counters)
