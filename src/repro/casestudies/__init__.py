"""The paper's case studies plus their cluster-scale extension.

BFS data placement (Section 7.1), interference-aware scheduling
(Section 7.2), and the one cluster-scheduling study, whose job stream is
synthetic or a real Slurm ``sacct`` trace (:mod:`repro.casestudies.trace_replay`).
"""

from .bfs_placement import (
    BASELINE_ORDER,
    BFSCaseStudyResult,
    BFSPlacementCaseStudy,
    OPTIMIZED_ORDER,
    PlacementVariantResult,
    baseline_spec,
    optimized_spec,
    reordered_spec,
)
from .scheduling import (
    SchedulingCaseStudy,
    SchedulingCaseStudyResult,
    WorkloadSchedulingResult,
)
from .trace_replay import (
    TraceJobMapper,
    TraceReplayResult,
    TraceReplayStudy,
)

__all__ = [
    "BASELINE_ORDER",
    "BFSCaseStudyResult",
    "BFSPlacementCaseStudy",
    "OPTIMIZED_ORDER",
    "PlacementVariantResult",
    "baseline_spec",
    "optimized_spec",
    "reordered_spec",
    "SchedulingCaseStudy",
    "SchedulingCaseStudyResult",
    "WorkloadSchedulingResult",
    "TraceJobMapper",
    "TraceReplayResult",
    "TraceReplayStudy",
]
