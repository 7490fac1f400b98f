"""Footprint / access-distribution utilities.

These functions turn per-page access counts into the cumulative
access-vs-footprint curves the paper uses as "memory bandwidth-capacity
scaling curves" (Section 4.1, Figure 6): sort pages by access count in
descending order, then plot the cumulative share of accesses against the
share of the memory footprint.

The curve is built from *pieces* (:data:`~repro.trace.patterns.Piece`):
constant runs ``(count, pages)`` and dense arrays, as the engine's access
accumulation returns them (:meth:`~repro.sim.engine.ExecutionEngine.access_pieces`).
Only the dense values are sorted; each run is placed among them by
``searchsorted`` (equal values may land in any order, which changes no sum).
The curve keeps the bits of the page-length chain it replaces (sort, cumsum,
divide by the sum, x100, linspace, interp), kept as the oracle in
``tests/trace/test_footprint_in_place.py``:

* the total is :func:`~repro.trace.patterns.pairwise_sum` of the sorted
  pieces, NumPy's pairwise order over the descending sequence;
* the cumulative sum runs NumPy's sequential ``cumsum`` through the dense
  stretches and jumps across a run with :func:`run_partial_sums`;
* the normalisation, the x100 and the footprint grid (point ``i`` is
  ``i * (100 / N)`` and the last is 100, as ``np.linspace`` computes them)
  are evaluated only at the brackets ``np.interp`` reads.

Why the jump is exact.  Let ``s >= 0`` lie in a binade whose values are the
multiples of ``u`` below ``2^53 u`` (for subnormals, ``u`` is the smallest
subnormal and the stretch reaches ``2^-1021``).  While the exact sum
``s + v`` stays below ``2^53 u``, rounding it is rounding ``s/u + v/u`` to an
integer, ties to even.  If ``v/u`` is not a half-integer, every step adds
``round(v/u)`` ulps whatever ``s`` is.  If it is, a tie goes to the even
neighbour, so after one step ``s/u`` is even and every later step adds the
even one of ``floor(v/u)`` and ``floor(v/u) + 1``, which is
``round_half_even(v/u)`` again.  So after at most one float step the
increment is a constant ``d``, and exact integer arithmetic (from
``float.as_integer_ratio``) counts the steps that keep ``s + v`` inside the
binade.  An increment of 0 is a fixed point.  The jump therefore costs
O(binades crossed), not O(pages).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..telemetry import metrics
from .access import PageAccessProfile
from .patterns import Piece, pairwise_sum, piece_length


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


#: Integers below this are the multiples of one ulp inside one binade.
_BINADE_ULPS = 1 << 53


def run_partial_sums(start: float, value: float, counts: Sequence[int]) -> list[float]:
    """``start`` after ``counts[i]`` sequential additions of ``value``, for each ``i``.

    ``counts`` ascend.  Bit for bit the floats ``np.cumsum([start] + [value]
    * counts[-1])`` holds at those positions, for a non-negative ``start``
    and ``value`` (``-0.0`` included), as the cumulative sum of kept counts
    is.  The cost is O(binades crossed + len(counts)), not O(counts[-1]):
    inside one binade the increment is a constant number of ulps once one
    float step has settled the round-to-even parity (see the module
    docstring), and integer arithmetic counts how many steps fit.
    """
    s = float(start)
    value = float(value)
    p, q = value.as_integer_ratio() if math.isfinite(value) else (0, 1)
    value_shift = q.bit_length() - 1  # value == p / 2**value_shift
    sums: list[float] = []
    done = 0  # additions made
    fits = 0  # additions left at the settled constant increment
    for count in counts:
        while done < count:
            if fits:
                jump = min(count - done, fits)
                done += jump
                fits -= jump
                ulps += jump * step
                s = float(ulps) * unit
                continue
            t = s + value
            done += 1
            if t == s or not math.isfinite(t):
                s = t  # a fixed point: no increment, or infinity
                return sums + [s] * (len(counts) - len(sums))
            s = t
            # s is ``ulps`` multiples of ``unit``, its binade's ulp, and
            # ``value`` is ``scaled`` multiples of ``unit / 2**scale``.
            exponent = max(math.frexp(s)[1], -1021) - 53
            unit = 2.0**exponent
            numerator, denominator = s.as_integer_ratio()
            shift = -exponent - (denominator.bit_length() - 1)
            ulps = numerator << shift if shift >= 0 else numerator >> -shift
            scale = max(value_shift + exponent, 0)
            scaled = p << (scale - value_shift - exponent)
            whole = scaled >> scale
            rest = scaled - (whole << scale)
            half = (1 << scale) >> 1
            tie = scale > 0 and rest == half
            step = whole + (scale > 0 and (rest > half or (tie and whole & 1)))
            if tie and ulps & 1:
                continue  # the next float step makes ulps even
            if step == 0:
                return sums + [s] * (len(counts) - len(sums))
            room = ((_BINADE_ULPS - ulps) << scale) - scaled
            fits = -(-room // (step << scale)) if room > 0 else 0
        sums.append(s)
    return sums


def _brackets(pct: np.ndarray, n: int) -> list[int]:
    """For each ``x`` of ``pct``, the last grid index ``i`` with ``grid[i] <= x``.

    ``grid`` is ``np.linspace(0.0, 100.0, n + 1)``: ``i * (100 / n)``, and
    exactly 100 at ``i == n``.
    """
    step = np.float64(100.0) / n

    def grid(i: np.ndarray) -> np.ndarray:
        return np.where(i >= n, 100.0, i * step)

    index = np.clip(np.floor(pct / step), 0, n)
    while True:
        high = grid(index) > pct
        low = (index < n) & (grid(index + 1) <= pct)
        if not (high.any() or low.any()):
            return index.astype(np.int64).tolist()
        index = index - high + low


def scaling_curve_from_pieces(pieces: Sequence[Piece], n_points: int = 101) -> ScalingCurve:
    """Build a scaling curve from per-page counts given as pieces.

    ``pieces`` are constant runs ``(count, pages)`` and dense arrays; the
    curve is :func:`scaling_curve_from_counts` of their concatenation, bit
    for bit, at the cost of sorting and summing the dense values only (see
    the module docstring).  Negative and NaN counts are dropped.  The dense
    arrays are read, never written: their kept values are sorted into one
    new array.
    """
    runs = []
    dense = []
    for piece in pieces:
        if isinstance(piece, tuple):
            if piece[0] >= 0 and piece[1] > 0:
                runs.append((float(piece[0]), int(piece[1])))
        else:
            dense.append(np.asarray(piece, dtype=np.float64))
    ordered = np.concatenate(dense) if dense else np.empty(0)
    ordered.sort()
    # Negative counts sort first and NaN last: keep what lies between.
    ordered = ordered[np.searchsorted(ordered, 0.0) : np.searchsorted(ordered, np.nan)]
    metrics().counter("footprint.dense_counts").inc(len(ordered))
    n = len(ordered) + sum(pages for _, pages in runs)
    pct = np.linspace(0.0, 100.0, n_points)
    if not (any(value > 0 for value, _ in runs) or (len(ordered) and ordered[-1] > 0)):
        return ScalingCurve(pct, pct.copy())

    # The descending sequence: stretches of the sorted dense values (a
    # reversed view) with every run placed among them.
    descending = ordered[::-1]
    runs.sort(key=lambda run: -run[0])
    cuts = len(ordered) - np.searchsorted(ordered, [value for value, _ in runs], side="right")
    sequence: list[Piece] = []
    done = 0
    for run, cut in zip(runs, cuts.tolist()):
        if cut > done:
            sequence.append(descending[done:cut])
        sequence.append(run)
        done = cut
    if done < len(ordered):
        sequence.append(descending[done:])
    total = pairwise_sum(sequence)

    # The cumulative sum at the grid points np.interp reads: each bracket's
    # two ends and the last point.  Index 0 is the leading 0.0.
    brackets = _brackets(pct, n)
    wanted = sorted({*brackets, *(min(i + 1, n) for i in brackets), n})
    cum = [0.0] if wanted[0] == 0 else []
    position = 0  # values summed so far
    s = 0.0
    for piece in sequence:
        end = position + piece_length(piece)
        inside = [i - position for i in wanted[len(cum) : bisect_right(wanted, end)]]
        if isinstance(piece, tuple):
            sums = run_partial_sums(s, piece[0], inside + [piece[1]])
            s = sums.pop()
            cum += sums
        else:
            piece[0] += s  # the sum carried in, then NumPy's own cumsum
            np.cumsum(piece, out=piece)
            cum += piece[np.array(inside, dtype=np.int64) - 1].tolist()
            s = float(piece[-1])
        position = end
    access_pct = np.array(cum) / total * 100.0
    step = np.float64(100.0) / n
    footprint_pct = np.array([100.0 if i >= n else i * step for i in wanted])
    return ScalingCurve(pct, np.interp(pct, footprint_pct, access_pct))


def scaling_curve_from_counts(counts: np.ndarray, n_points: int = 101) -> ScalingCurve:
    """Build a scaling curve from raw per-page access counts.

    Pages are sorted by access count in descending order; the cumulative
    distribution of accesses is then resampled onto ``n_points`` evenly spaced
    footprint percentages so curves of different footprint sizes can be
    overlaid (as in Figure 6).  Negative and NaN counts are dropped.  The
    one-dense-piece case of :func:`scaling_curve_from_pieces`: the counts
    are sorted into one copy, and nothing else page-length is built.
    """
    return scaling_curve_from_pieces([np.asarray(counts, dtype=np.float64)], n_points)


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
