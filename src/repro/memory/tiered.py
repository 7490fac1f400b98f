"""Tiered physical memory with first-touch page placement.

This module models the physical side of the paper's emulation platform:
a fast node-local tier and a slower pooled tier (Section 3.3).  Pages are
placed when they are first touched.  Under the Linux default first-touch
policy, allocations land in the node-local tier until it is full and then
spill to the remote tier — exactly the behaviour the paper relies on to set up
its 75/50/25% capacity-ratio experiments with ``setup_waste``.

The class also supports explicit placement (the libnuma-style options the BFS
case study discusses), interleaving, page migration and freeing, so all three
optimisation options considered in Section 7.1 can be expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..config.errors import AllocationError, PlacementError
from ..config.tiers import TieredMemoryConfig
from .objects import (
    AddressSpace,
    MemoryObject,
    PLACEMENT_FIRST_TOUCH,
    PLACEMENT_INTERLEAVE,
    PLACEMENT_LOCAL,
    PLACEMENT_REMOTE,
)

#: Sentinel tier index for pages that have not been touched yet.
UNPLACED = -1


@dataclass
class TierUsage:
    """Capacity accounting for one tier."""

    name: str
    capacity_bytes: int
    used_bytes: int = 0

    @property
    def free_bytes(self) -> int:
        """Remaining capacity in bytes."""
        return self.capacity_bytes - self.used_bytes

    @property
    def utilization(self) -> float:
        """Fraction of the tier's capacity in use."""
        if self.capacity_bytes <= 0:
            return 0.0
        return self.used_bytes / self.capacity_bytes


class TieredMemory:
    """Physical placement of an :class:`AddressSpace` onto memory tiers.

    Parameters
    ----------
    config:
        The tier geometry (capacities, bandwidths, latencies).
    address_space:
        The virtual address space whose pages are being placed.
    reserved_local_bytes:
        Bytes of node-local memory occupied by something other than the
        application (the paper's ``setup_waste`` tool).  They reduce the local
        tier capacity available to first-touch placement.
    """

    def __init__(
        self,
        config: TieredMemoryConfig,
        address_space: AddressSpace,
        reserved_local_bytes: int = 0,
    ) -> None:
        if reserved_local_bytes < 0:
            raise AllocationError("reserved_local_bytes must be >= 0")
        if reserved_local_bytes > config.tiers[0].capacity_bytes:
            raise AllocationError("reserved_local_bytes exceeds the local tier capacity")
        self.config = config
        self.address_space = address_space
        self.page_bytes = address_space.page_bytes
        self._usage = [
            TierUsage(t.name, t.capacity_bytes) for t in config.tiers
        ]
        self._usage[0].used_bytes += int(reserved_local_bytes)
        self.reserved_local_bytes = int(reserved_local_bytes)
        #: Tier index of every page in the address space (UNPLACED until touched).
        self._page_tier = np.full(address_space.total_pages, UNPLACED, dtype=np.int8)
        #: Monotonic count of page migrations performed.
        self.migrations = 0

    # -- internal helpers -----------------------------------------------------

    def _grow_page_table(self) -> None:
        """Extend the page-tier table after new objects were registered."""
        total = self.address_space.total_pages
        if total > len(self._page_tier):
            extra = np.full(total - len(self._page_tier), UNPLACED, dtype=np.int8)
            self._page_tier = np.concatenate([self._page_tier, extra])

    def _free_pages_in(self, tier: int) -> int:
        """How many whole pages still fit in ``tier``."""
        return max(self._usage[tier].free_bytes // self.page_bytes, 0)

    def _place_pages(self, pages: np.ndarray | range, tier: int) -> None:
        """Place previously-unplaced pages into ``tier`` and charge capacity.

        ``pages`` is an index array or a ``range`` of contiguous pages, which
        is written as one slice.
        """
        if len(pages) == 0:
            return
        n_bytes = len(pages) * self.page_bytes
        if n_bytes > self._usage[tier].free_bytes:
            raise AllocationError(
                f"tier {self._usage[tier].name!r} cannot hold {len(pages)} more pages "
                f"({self._usage[tier].free_bytes} bytes free) — out of memory"
            )
        if isinstance(pages, range):
            pages = slice(pages.start, pages.stop)
        self._page_tier[pages] = tier
        self._usage[tier].used_bytes += n_bytes

    # -- placement ------------------------------------------------------------

    def touch(self, obj: MemoryObject) -> np.ndarray:
        """First-touch (initialise) an object, placing all of its pages.

        Placement follows the object's policy:

        * ``first-touch`` fills the fastest tier with free capacity first and
          spills the remainder downwards (Linux default),
        * ``local`` / ``remote`` force the top / bottom tier and raise
          :class:`AllocationError` if it does not fit,
        * ``interleave`` spreads pages round-robin over all tiers with space.

        Returns the tier index of each of the object's pages, a copy.
        Touching an already-placed object is a no-op (idempotent, like
        re-initialising an array in place).  A wholly unplaced object is
        placed as a ``range``, one slice write per tier; interleaving and a
        partly placed object take an index array of the unplaced pages.
        """
        self._place(obj)
        return self.placement_of(obj)

    def _place(self, obj: MemoryObject) -> None:
        """:meth:`touch` without building its return value."""
        pages = self._pages(obj)
        is_unplaced = self._page_tier[pages] == UNPLACED
        n_unplaced = int(np.count_nonzero(is_unplaced))
        if n_unplaced == 0:
            return
        if n_unplaced == obj.n_pages and obj.placement != PLACEMENT_INTERLEAVE:
            unplaced = range(pages.start, pages.stop)
        else:
            unplaced = np.flatnonzero(is_unplaced) + pages.start

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

    def _place_first_touch(self, pages: np.ndarray | range) -> None:
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
        # Place round-robin buckets, spilling overflow onto the other tiers.
        overflow: list[np.ndarray] = []
        for tier, bucket in enumerate(buckets):
            fit = min(self._free_pages_in(tier), len(bucket))
            self._place_pages(bucket[:fit], tier)
            if fit < len(bucket):
                overflow.append(bucket[fit:])
        if overflow:
            self._place_first_touch(np.concatenate(overflow))

    def touch_in_order(self, objects: Sequence[MemoryObject]) -> None:
        """First-touch a list of objects in the given order.

        The order is significant under first-touch placement — this is the
        lever the BFS case study pulls by allocating/initialising the hottest
        object first.
        """
        for obj in objects:
            self._place(obj)

    # -- freeing and migration --------------------------------------------------

    def free(self, obj: MemoryObject) -> int:
        """Free an object's pages, returning how many bytes were released."""
        pages = self._pages(obj)
        placement = self._page_tier[pages]
        released = 0
        for tier, usage in enumerate(self._usage):
            n_bytes = int(np.count_nonzero(placement == tier)) * self.page_bytes
            usage.used_bytes -= n_bytes
            released += n_bytes
        self._page_tier[pages] = UNPLACED
        return released

    def migrate(self, obj: MemoryObject, to_tier: int, max_pages: Optional[int] = None) -> int:
        """Migrate an object's pages to ``to_tier`` (like move_pages).

        Moves at most ``max_pages`` pages (all pages if None) subject to the
        destination tier's free capacity.  Returns the number of pages moved.
        """
        if not 0 <= to_tier < len(self._usage):
            raise PlacementError(f"invalid destination tier {to_tier}")
        self._grow_page_table()
        pages = obj.page_range()
        movable = pages[
            (self._page_tier[pages] != to_tier) & (self._page_tier[pages] != UNPLACED)
        ]
        if max_pages is not None:
            movable = movable[: max(int(max_pages), 0)]
        fit = min(self._free_pages_in(to_tier), len(movable))
        movable = movable[:fit]
        if len(movable) == 0:
            return 0
        for tier in range(len(self._usage)):
            tier_pages = movable[self._page_tier[movable] == tier]
            self._usage[tier].used_bytes -= len(tier_pages) * self.page_bytes
        self._place_pages_after_migration(movable, to_tier)
        self.migrations += len(movable)
        return len(movable)

    def _place_pages_after_migration(self, pages: np.ndarray, tier: int) -> None:
        n_bytes = len(pages) * self.page_bytes
        if n_bytes > self._usage[tier].free_bytes:
            raise AllocationError("destination tier ran out of space during migration")
        self._page_tier[pages] = tier
        self._usage[tier].used_bytes += n_bytes

    # -- queries -----------------------------------------------------------------

    def _pages(self, obj: MemoryObject) -> slice:
        """The page-table slice backing ``obj`` (every object owns one contiguous range)."""
        if not obj.registered:
            raise AllocationError(f"object {obj.name!r} is not registered")
        self._grow_page_table()
        return slice(obj.first_page, obj.first_page + obj.n_pages)

    def placement_of(self, obj: MemoryObject) -> np.ndarray:
        """Tier index of each page of ``obj`` (UNPLACED for untouched pages), a copy."""
        return self.placement_view(obj).copy()

    def placement_view(self, obj: MemoryObject) -> np.ndarray:
        """:meth:`placement_of` as a read-only view into the page table.

        No copy is made, so the view follows every later placement change;
        read it before placing, freeing or migrating pages.
        """
        view = self._page_tier[self._pages(obj)]
        view.flags.writeable = False
        return view

    def page_tiers(self) -> np.ndarray:
        """Tier index of every page in the address space."""
        self._grow_page_table()
        return self._page_tier.copy()

    def tier_of_lines(self, lines: np.ndarray) -> np.ndarray:
        """Tier index serving each cacheline access (by page lookup)."""
        self._grow_page_table()
        pages = np.asarray(lines, dtype=np.int64) // self.address_space.lines_per_page
        pages = np.clip(pages, 0, len(self._page_tier) - 1)
        tiers = self._page_tier[pages]
        # Untouched pages behave as if first-touched into the top tier with
        # space; approximating them as local keeps queries side-effect free.
        return np.where(tiers == UNPLACED, 0, tiers)

    def object_tier_bytes(self, obj: MemoryObject) -> dict[str, int]:
        """Bytes of ``obj`` resident in each tier, keyed by tier name."""
        placement = self._page_tier[self._pages(obj)]
        return {
            usage.name: int(np.count_nonzero(placement == tier)) * self.page_bytes
            for tier, usage in enumerate(self._usage)
        }

    def resident_bytes(self, tier: int) -> int:
        """Application bytes resident in ``tier`` (excludes reserved waste)."""
        used = self._usage[tier].used_bytes
        if tier == 0:
            used -= self.reserved_local_bytes
        return max(used, 0)

    @property
    def usage(self) -> tuple[TierUsage, ...]:
        """Capacity accounting of every tier."""
        return tuple(self._usage)

    def remote_capacity_ratio(self) -> float:
        """Fraction of resident application pages living in the bottom tier.

        This is the paper's Level-2 *remote capacity ratio*, as it would be
        measured from ``numa_maps``.  A single-tier (local-only) system has no
        remote tier, so the ratio is 0 by definition.
        """
        if len(self._usage) < 2:
            return 0.0
        resident = [self.resident_bytes(t) for t in range(len(self._usage))]
        total = sum(resident)
        if total <= 0:
            return 0.0
        return resident[-1] / total

    def describe(self) -> dict:
        """Summary of current placement state."""
        return {
            "tiers": [
                {
                    "name": u.name,
                    "capacity_bytes": u.capacity_bytes,
                    "used_bytes": u.used_bytes,
                    "resident_app_bytes": self.resident_bytes(i),
                    "utilization": u.utilization,
                }
                for i, u in enumerate(self._usage)
            ],
            "remote_capacity_ratio": self.remote_capacity_ratio(),
            "migrations": self.migrations,
        }
