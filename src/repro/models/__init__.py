"""Analytical models: roofline, memory roofline, cost, planning."""

from .capacity_planning import (
    DeploymentPlan,
    NodeResources,
    compare_plans,
    minimum_nodes_for_capacity,
    nodes_for_bandwidth,
    plan_local_only,
    plan_with_pool,
)
from .cost import MemoryPriceModel, ProvisioningScenario, utilization_based_scenario
from .memory_roofline import MemoryRoofline, optimization_priority
from .roofline import RooflineModel, RooflinePoint, roofline_series

__all__ = [
    "DeploymentPlan",
    "NodeResources",
    "compare_plans",
    "minimum_nodes_for_capacity",
    "nodes_for_bandwidth",
    "plan_local_only",
    "plan_with_pool",
    "MemoryPriceModel",
    "ProvisioningScenario",
    "utilization_based_scenario",
    "MemoryRoofline",
    "optimization_priority",
    "RooflineModel",
    "RooflinePoint",
    "roofline_series",
]
