"""Page weights as the access patterns computed them before they had runs.

Sequential, strided, random and blocked patterns filled a page-length array
with ``1/n``; a hot/cold pattern filled it with the cold weight, added the
hot share to its first pages and normalised a copy.  Zipf and gather
weights were built from temporaries: a power of a rank array, a normalised
copy of it, and for a gather pattern scaled uniform and skewed arrays and a
normalised sum.  Those formulas live on here as differential oracles: the
patterns' runs, their expansions and the in-place dense draws must give the
same bits.
"""

from __future__ import annotations

import numpy as np

from repro.memory.tiered import UNPLACED


def normalise(weights: np.ndarray) -> np.ndarray:
    total = weights.sum()
    if total <= 0:
        return np.full(len(weights), 1.0 / max(len(weights), 1))
    return weights / total


def uniform_weights(n_pages: int) -> np.ndarray:
    """Sequential, strided, random and blocked weights."""
    return np.full(n_pages, 1.0 / max(n_pages, 1))


def hot_cold_weights(pattern, n_pages: int) -> np.ndarray:
    if n_pages <= 0:
        return np.empty(0, dtype=np.float64)
    hot_pages = max(int(round(n_pages * pattern.hot_fraction)), 1)
    weights = np.full(n_pages, (1.0 - pattern.hot_traffic) / max(n_pages, 1))
    weights[:hot_pages] += pattern.hot_traffic / hot_pages
    return normalise(weights)


def zipf_rank_weights(alpha: float, n: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return normalise(ranks ** (-alpha))


def zipf_weights(alpha: float, n_pages: int, rng: np.random.Generator) -> np.ndarray:
    if n_pages <= 0:
        return np.empty(0, dtype=np.float64)
    weights = zipf_rank_weights(alpha, n_pages)
    rng.shuffle(weights)
    return weights


def gather_weights(pattern, n_pages: int, rng: np.random.Generator) -> np.ndarray:
    if n_pages <= 0:
        return np.empty(0, dtype=np.float64)
    uniform = np.full(n_pages, 1.0 / n_pages)
    skewed = zipf_weights(pattern.skew_alpha, n_pages, rng)
    return normalise(
        (1.0 - pattern.indexed_fraction) * uniform + pattern.indexed_fraction * skewed
    )


def masked_tier_weights(placement: np.ndarray, weights: np.ndarray, n_tiers: int):
    """(tier, summed weight) from one mask per tier over dense weights."""
    parts = [(tier, weights[placement == tier]) for tier in range(n_tiers)]
    parts.append((0, weights[placement == UNPLACED]))
    return [(tier, float(part.sum())) for tier, part in parts if len(part)]
