"""Reference placement the tiered memory's slice writes are tested against.

:meth:`TieredMemory.touch` places a wholly unplaced first-touch, local or
remote object with one slice write per tier, and :meth:`TieredMemory.free`
counts and clears an object's pages by slice.  Both used to build int64
page-index arrays: ``page_range()``, a gather of its page tiers, a mask of
the unplaced pages and a scatter per tier.  That implementation lives on
here as :class:`IndexArrayTieredMemory`, a differential oracle.  It overrides
only the methods the slices changed; capacity accounting, migration and the
queries are inherited unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.config.errors import AllocationError, PlacementError
from repro.memory.objects import (
    MemoryObject,
    PLACEMENT_FIRST_TOUCH,
    PLACEMENT_INTERLEAVE,
    PLACEMENT_LOCAL,
    PLACEMENT_REMOTE,
)
from repro.memory.tiered import UNPLACED, TieredMemory


class IndexArrayTieredMemory(TieredMemory):
    """:class:`TieredMemory` placing and freeing through page-index arrays."""

    def _place_pages(self, pages: np.ndarray, tier: int) -> None:
        if len(pages) == 0:
            return
        n_bytes = len(pages) * self.page_bytes
        if n_bytes > self._usage[tier].free_bytes:
            raise AllocationError(
                f"tier {self._usage[tier].name!r} cannot hold {len(pages)} more pages "
                f"({self._usage[tier].free_bytes} bytes free) — out of memory"
            )
        self._page_tier[pages] = tier
        self._usage[tier].used_bytes += n_bytes

    def touch(self, obj: MemoryObject) -> np.ndarray:
        self._grow_page_table()
        pages = obj.page_range()
        unplaced = pages[self._page_tier[pages] == UNPLACED]
        if len(unplaced) == 0:
            return self.placement_of(obj)

        if obj.placement == PLACEMENT_LOCAL:
            self._place_pages(unplaced, 0)
        elif obj.placement == PLACEMENT_REMOTE:
            self._place_pages(unplaced, len(self._usage) - 1)
        elif obj.placement == PLACEMENT_INTERLEAVE:
            self._place_interleaved(unplaced)
        elif obj.placement == PLACEMENT_FIRST_TOUCH:
            self._place_first_touch(unplaced)
        else:  # pragma: no cover - validated at object construction
            raise PlacementError(f"unknown placement policy {obj.placement!r}")
        return self.placement_of(obj)

    def _place_first_touch(self, pages: np.ndarray) -> None:
        remaining = pages
        for tier in range(len(self._usage)):
            if len(remaining) == 0:
                return
            fit = min(self._free_pages_in(tier), len(remaining))
            if fit > 0:
                self._place_pages(remaining[:fit], tier)
                remaining = remaining[fit:]
        if len(remaining) > 0:
            raise AllocationError(
                f"out of memory: {len(remaining)} pages do not fit in any tier"
            )

    def _place_interleaved(self, pages: np.ndarray) -> None:
        n_tiers = len(self._usage)
        buckets = [pages[i::n_tiers] for i in range(n_tiers)]
        overflow: list[np.ndarray] = []
        for tier, bucket in enumerate(buckets):
            fit = min(self._free_pages_in(tier), len(bucket))
            self._place_pages(bucket[:fit], tier)
            if fit < len(bucket):
                overflow.append(bucket[fit:])
        if overflow:
            self._place_first_touch(np.concatenate(overflow))

    def free(self, obj: MemoryObject) -> int:
        self._grow_page_table()
        pages = obj.page_range()
        released = 0
        for tier in range(len(self._usage)):
            tier_pages = pages[self._page_tier[pages] == tier]
            n_bytes = len(tier_pages) * self.page_bytes
            self._usage[tier].used_bytes -= n_bytes
            released += n_bytes
        self._page_tier[pages] = UNPLACED
        return released
