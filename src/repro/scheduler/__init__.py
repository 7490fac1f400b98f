"""Interference-aware job scheduling on pooled-memory clusters.

The subsystem couples to :mod:`repro.fabric` through the progress models in
:mod:`repro.scheduler.progress`: the cluster simulator's event loop asks a
:class:`ProgressModel` how fast each running job advances, and the
fabric-coupled implementation answers by stepping one rack co-simulation per
rack between scheduler events.
"""

from .cluster import Cluster, Node, Rack
from .job import Job, JobProfile
from .policies import (
    FabricCoupledPlacement,
    InterferenceAwarePlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    POLICIES,
    PoolAwarePlacement,
    RandomPlacement,
    make_policy,
)
from .progress import (
    FabricCoupledProgress,
    ProgressModel,
    StaticCurveProgress,
    fabric_job_profile,
)
from .simulator import (
    ClusterSimulator,
    CoLocationResult,
    CoLocationStudy,
    ScheduleOutcome,
)

__all__ = [
    "Cluster",
    "Node",
    "Rack",
    "Job",
    "JobProfile",
    "FabricCoupledPlacement",
    "InterferenceAwarePlacement",
    "LeastLoadedPlacement",
    "PlacementPolicy",
    "POLICIES",
    "PoolAwarePlacement",
    "RandomPlacement",
    "make_policy",
    "FabricCoupledProgress",
    "ProgressModel",
    "StaticCurveProgress",
    "fabric_job_profile",
    "ClusterSimulator",
    "CoLocationResult",
    "CoLocationStudy",
    "ScheduleOutcome",
]
