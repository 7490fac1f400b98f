"""Cache hierarchy, hardware prefetcher model and performance events."""

from . import events
from .events import CounterSet
from .hierarchy import CacheHierarchyModel, KernelCacheStats
from .prefetcher import PrefetchOutcome, analyze_fraction, analyze_stream

__all__ = [
    "events",
    "CounterSet",
    "CacheHierarchyModel",
    "KernelCacheStats",
    "PrefetchOutcome",
    "analyze_fraction",
    "analyze_stream",
]
