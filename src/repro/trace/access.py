"""Memory access stream containers.

The simulator exchanges memory accesses as :class:`AccessBatch` objects —
structure-of-arrays NumPy containers holding cacheline indices, read/write
flags and the originating data object.  Batches are cheap to concatenate,
slice and hand to the vectorised cache model, following the hpc-parallel
guideline of keeping hot paths in NumPy rather than per-element Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass
class AccessBatch:
    """A batch of cacheline-granularity memory accesses.

    Attributes
    ----------
    lines:
        Global cacheline indices (int64).  A cacheline index is the byte
        address divided by the cacheline size; the address-space layout is
        managed by the allocator.
    is_write:
        Boolean array marking store (read-for-ownership) accesses.
    object_ids:
        Integer id of the data object each access belongs to, or -1 when
        unknown.  Used to attribute traffic to allocation sites, mirroring the
        paper's profiler hook on allocation calls.
    weight:
        Each sampled access in this batch represents ``weight`` real accesses.
        Workload models sample their address streams; the weight scales the
        sample back up to the full traffic volume.
    """

    lines: np.ndarray
    is_write: np.ndarray
    object_ids: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.lines = np.asarray(self.lines, dtype=np.int64)
        self.is_write = np.asarray(self.is_write, dtype=bool)
        self.object_ids = np.asarray(self.object_ids, dtype=np.int64)
        if not (len(self.lines) == len(self.is_write) == len(self.object_ids)):
            raise ValueError("AccessBatch arrays must have equal length")
        if self.weight <= 0:
            raise ValueError("AccessBatch weight must be positive")

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls) -> "AccessBatch":
        """An empty batch."""
        z = np.empty(0, dtype=np.int64)
        return cls(lines=z, is_write=np.empty(0, dtype=bool), object_ids=z.copy())

    @classmethod
    def reads(cls, lines: np.ndarray, object_id: int = -1, weight: float = 1.0) -> "AccessBatch":
        """A batch of read accesses to ``lines`` from one object."""
        lines = np.asarray(lines, dtype=np.int64)
        return cls(
            lines=lines,
            is_write=np.zeros(len(lines), dtype=bool),
            object_ids=np.full(len(lines), object_id, dtype=np.int64),
            weight=weight,
        )

    @classmethod
    def writes(cls, lines: np.ndarray, object_id: int = -1, weight: float = 1.0) -> "AccessBatch":
        """A batch of write (RFO) accesses to ``lines`` from one object."""
        lines = np.asarray(lines, dtype=np.int64)
        return cls(
            lines=lines,
            is_write=np.ones(len(lines), dtype=bool),
            object_ids=np.full(len(lines), object_id, dtype=np.int64),
            weight=weight,
        )

    @classmethod
    def concat(cls, batches: Sequence["AccessBatch"]) -> "AccessBatch":
        """Concatenate batches that share the same weight.

        Raises ``ValueError`` if weights differ — callers should resample or
        keep batches separate in that case.
        """
        batches = [b for b in batches if len(b) > 0]
        if not batches:
            return cls.empty()
        weights = {b.weight for b in batches}
        if len(weights) != 1:
            raise ValueError("cannot concatenate batches with different weights")
        return cls(
            lines=np.concatenate([b.lines for b in batches]),
            is_write=np.concatenate([b.is_write for b in batches]),
            object_ids=np.concatenate([b.object_ids for b in batches]),
            weight=batches[0].weight,
        )

    # -- basic protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def n_reads(self) -> int:
        """Number of sampled read accesses."""
        return int((~self.is_write).sum())

    @property
    def n_writes(self) -> int:
        """Number of sampled write accesses."""
        return int(self.is_write.sum())

    @property
    def represented_accesses(self) -> float:
        """Total number of real accesses represented by this sample."""
        return len(self) * self.weight

    def bytes_represented(self, line_bytes: int) -> float:
        """Total bytes of traffic represented by this sample."""
        return self.represented_accesses * line_bytes

    def pages(self, lines_per_page: int) -> np.ndarray:
        """Page indices touched by each access."""
        return self.lines // int(lines_per_page)

    def subset(self, mask: np.ndarray) -> "AccessBatch":
        """A new batch containing only the accesses selected by ``mask``."""
        return AccessBatch(
            lines=self.lines[mask],
            is_write=self.is_write[mask],
            object_ids=self.object_ids[mask],
            weight=self.weight,
        )

    def interleave(self, other: "AccessBatch", rng: np.random.Generator) -> "AccessBatch":
        """Randomly interleave two equal-weight batches preserving each order.

        Used when a kernel touches several objects concurrently (e.g. a
        gather reading both an index array and a value array).
        """
        if self.weight != other.weight:
            raise ValueError("cannot interleave batches with different weights")
        n, m = len(self), len(other)
        if n == 0:
            return other
        if m == 0:
            return self
        positions = np.zeros(n + m, dtype=bool)
        positions[rng.choice(n + m, size=m, replace=False)] = True
        lines = np.empty(n + m, dtype=np.int64)
        is_write = np.empty(n + m, dtype=bool)
        object_ids = np.empty(n + m, dtype=np.int64)
        lines[~positions] = self.lines
        lines[positions] = other.lines
        is_write[~positions] = self.is_write
        is_write[positions] = other.is_write
        object_ids[~positions] = self.object_ids
        object_ids[positions] = other.object_ids
        return AccessBatch(lines=lines, is_write=is_write, object_ids=object_ids, weight=self.weight)


@dataclass
class PageAccessProfile:
    """Aggregated page-level access counts for one execution region.

    This is the representation behind the bandwidth-capacity scaling curves
    (Figure 6): how many accesses landed on each page of the footprint.
    """

    page_ids: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.page_ids = np.asarray(self.page_ids, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if len(self.page_ids) != len(self.counts):
            raise ValueError("page_ids and counts must have equal length")
        if np.any(self.counts < 0):
            raise ValueError("access counts must be non-negative")

    @classmethod
    def from_batch(cls, batch: AccessBatch, lines_per_page: int) -> "PageAccessProfile":
        """Aggregate an access batch into per-page counts."""
        if len(batch) == 0:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        pages = batch.pages(lines_per_page)
        unique, counts = np.unique(pages, return_counts=True)
        return cls(unique, counts.astype(np.float64) * batch.weight)

    def merged(self, other: "PageAccessProfile") -> "PageAccessProfile":
        """Combine two profiles, summing counts of shared pages."""
        if len(self.page_ids) == 0:
            return other
        if len(other.page_ids) == 0:
            return self
        all_pages = np.concatenate([self.page_ids, other.page_ids])
        all_counts = np.concatenate([self.counts, other.counts])
        unique, inverse = np.unique(all_pages, return_inverse=True)
        summed = np.zeros(len(unique), dtype=np.float64)
        np.add.at(summed, inverse, all_counts)
        return PageAccessProfile(unique, summed)

    @property
    def total_accesses(self) -> float:
        """Total access count across all pages."""
        return float(self.counts.sum())

    @property
    def n_pages(self) -> int:
        """Number of distinct pages touched."""
        return len(self.page_ids)
