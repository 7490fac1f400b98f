"""Virtual address space, memory objects and tiered physical placement."""

from .objects import (
    AddressSpace,
    MemoryObject,
    PLACEMENT_FIRST_TOUCH,
    PLACEMENT_INTERLEAVE,
    PLACEMENT_LOCAL,
    PLACEMENT_POLICIES,
    PLACEMENT_REMOTE,
)
from .tiered import TieredMemory, TierUsage, UNPLACED

__all__ = [
    "AddressSpace",
    "MemoryObject",
    "PLACEMENT_FIRST_TOUCH",
    "PLACEMENT_INTERLEAVE",
    "PLACEMENT_LOCAL",
    "PLACEMENT_POLICIES",
    "PLACEMENT_REMOTE",
    "TieredMemory",
    "TierUsage",
    "UNPLACED",
]
