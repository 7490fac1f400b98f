"""Footprint / access-distribution utilities.

These functions turn per-page access counts into the cumulative
access-vs-footprint curves the paper uses as "memory bandwidth-capacity
scaling curves" (Section 4.1, Figure 6): sort pages by access count in
descending order, then plot the cumulative share of accesses against the
share of the memory footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .access import PageAccessProfile


@dataclass(frozen=True)
class ScalingCurve:
    """A cumulative access distribution over the memory footprint.

    Attributes
    ----------
    footprint_pct:
        Monotonically increasing percentages of the memory footprint
        (hottest pages first), in [0, 100].
    access_pct:
        Cumulative percentage of memory accesses captured by that share of
        the footprint, in [0, 100].
    """

    footprint_pct: np.ndarray
    access_pct: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "footprint_pct", np.asarray(self.footprint_pct, dtype=np.float64))
        object.__setattr__(self, "access_pct", np.asarray(self.access_pct, dtype=np.float64))
        if len(self.footprint_pct) != len(self.access_pct):
            raise ValueError("curve arrays must have equal length")

    def access_share_at(self, footprint_share: float) -> float:
        """Fraction of accesses captured by the hottest ``footprint_share`` of pages.

        ``footprint_share`` is a fraction in [0, 1]; the return value is also
        a fraction in [0, 1].  Linear interpolation between curve points.
        """
        if len(self.footprint_pct) == 0:
            return 0.0
        pct = float(np.clip(footprint_share, 0.0, 1.0)) * 100.0
        return float(np.interp(pct, self.footprint_pct, self.access_pct)) / 100.0

    def footprint_share_for(self, access_share: float) -> float:
        """Smallest footprint fraction needed to capture ``access_share`` of accesses."""
        if len(self.footprint_pct) == 0:
            return 0.0
        target = float(np.clip(access_share, 0.0, 1.0)) * 100.0
        return float(np.interp(target, self.access_pct, self.footprint_pct)) / 100.0

    @property
    def skewness(self) -> float:
        """Gini-style skew of the access distribution in [0, 1].

        0 means perfectly uniform accesses across the footprint (HPL, Hypre);
        values near 1 mean a tiny hot set captures nearly all traffic
        (BFS, XSBench).  Computed as twice the area between the curve and the
        diagonal.
        """
        if len(self.footprint_pct) < 2:
            return 0.0
        x = self.footprint_pct / 100.0
        y = self.access_pct / 100.0
        area = float(np.trapezoid(y, x))
        return float(np.clip(2.0 * (area - 0.5), 0.0, 1.0))


def scaling_curve_from_counts(counts: np.ndarray, n_points: int = 101) -> ScalingCurve:
    """Build a scaling curve from raw per-page access counts.

    Pages are sorted by access count in descending order; the cumulative
    distribution of accesses is then resampled onto ``n_points`` evenly spaced
    footprint percentages so curves of different footprint sizes can be
    overlaid (as in Figure 6).  The counts are copied only when some must be
    dropped (negative or NaN), and the cumulative share is built in one
    array: a dense profile of a large footprint makes every temporary large.
    """
    counts = np.asarray(counts, dtype=np.float64)
    kept = counts >= 0
    if not kept.all():
        counts = counts[kept]
    if len(counts) == 0 or counts.sum() <= 0:
        pct = np.linspace(0.0, 100.0, n_points)
        return ScalingCurve(pct, pct.copy())
    ordered = np.sort(counts)[::-1]
    cum_access = np.empty(len(ordered) + 1)
    cum_access[0] = 0.0
    np.cumsum(ordered, out=cum_access[1:])
    cum_access /= ordered.sum()
    cum_access *= 100.0
    cum_footprint = np.linspace(0.0, 100.0, len(ordered) + 1)
    pct = np.linspace(0.0, 100.0, n_points)
    access = np.interp(pct, cum_footprint, cum_access)
    return ScalingCurve(pct, access)


def scaling_curve_from_profile(profile: PageAccessProfile, n_points: int = 101) -> ScalingCurve:
    """Build a scaling curve from a :class:`PageAccessProfile`."""
    return scaling_curve_from_counts(profile.counts, n_points=n_points)


def hot_page_order(profile: PageAccessProfile) -> np.ndarray:
    """Page ids ordered from hottest to coldest."""
    if profile.n_pages == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(profile.counts)[::-1]
    return profile.page_ids[order]


def working_set_pages(profile: PageAccessProfile, access_share: float = 0.9) -> int:
    """Number of hottest pages that capture ``access_share`` of all accesses."""
    if profile.n_pages == 0:
        return 0
    ordered = np.sort(profile.counts)[::-1]
    cum = np.cumsum(ordered)
    target = access_share * cum[-1]
    return int(np.searchsorted(cum, target) + 1)
