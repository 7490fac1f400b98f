"""Memory access traces: batches, patterns and footprint distributions."""

from .access import AccessBatch, PageAccessProfile
from .footprint import (
    ScalingCurve,
    hot_page_order,
    scaling_curve_from_counts,
    scaling_curve_from_pieces,
    scaling_curve_from_profile,
    working_set_pages,
)
from .patterns import (
    PATTERNS,
    AccessPattern,
    BlockedPattern,
    GatherPattern,
    HotColdPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    ZipfPattern,
    make_pattern,
)

__all__ = [
    "AccessBatch",
    "PageAccessProfile",
    "ScalingCurve",
    "hot_page_order",
    "scaling_curve_from_counts",
    "scaling_curve_from_pieces",
    "scaling_curve_from_profile",
    "working_set_pages",
    "PATTERNS",
    "AccessPattern",
    "BlockedPattern",
    "GatherPattern",
    "HotColdPattern",
    "RandomPattern",
    "SequentialPattern",
    "StridedPattern",
    "ZipfPattern",
    "make_pattern",
]
