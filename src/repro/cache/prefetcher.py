"""L2 hardware stream/stride prefetcher model.

The paper quantifies the suitability of prefetching per application with two
metrics (Section 4.2):

* **Accuracy** — fraction of prefetched lines that the program actually used,
* **Coverage** — fraction of L2 line fills that were prefetched rather than
  demanded.

plus the *excessive memory traffic* caused by useless prefetches and the
*performance gain* of enabling prefetching.  :func:`analyze_fraction` computes
the raw ingredients in closed form from the fraction of accesses that belong to
prefetchable streams; :class:`~repro.cache.hierarchy.CacheHierarchyModel`
prices every kernel with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.testbed import PrefetcherConfig


@dataclass(frozen=True)
class PrefetchOutcome:
    """Raw prefetcher activity over one access stream, in cachelines."""

    #: Demand accesses analysed.
    demand_accesses: int
    #: Demand accesses that hit on a previously prefetched line.
    covered_accesses: int
    #: Prefetch requests issued for data reads.
    prefetches_data_rd: int
    #: Prefetch requests issued for stores (RFO).
    prefetches_rfo: int
    #: Prefetched lines never demanded before eviction (useless prefetches).
    useless_prefetches: int

    @property
    def prefetches_issued(self) -> int:
        """Total prefetch requests issued."""
        return self.prefetches_data_rd + self.prefetches_rfo

    @property
    def useful_prefetches(self) -> int:
        """Prefetches that were eventually demanded."""
        return self.prefetches_issued - self.useless_prefetches

    @property
    def accuracy(self) -> float:
        """Fraction of prefetched lines that were used (paper Eq. 1 numerator/denominator)."""
        if self.prefetches_issued == 0:
            return 0.0
        return self.useful_prefetches / self.prefetches_issued

    @property
    def coverage(self) -> float:
        """Fraction of useful line fills that were prefetched (paper Eq. 2)."""
        useful_fills = self.demand_accesses
        if useful_fills == 0:
            return 0.0
        return min(self.covered_accesses / useful_fills, 1.0)

    @property
    def excess_traffic_fraction(self) -> float:
        """Extra memory traffic caused by useless prefetches, as a fraction of demand traffic."""
        if self.demand_accesses == 0:
            return 0.0
        return self.useless_prefetches / self.demand_accesses

    @staticmethod
    def disabled(demand_accesses: int) -> "PrefetchOutcome":
        """The outcome when hardware prefetching is turned off."""
        return PrefetchOutcome(
            demand_accesses=int(demand_accesses),
            covered_accesses=0,
            prefetches_data_rd=0,
            prefetches_rfo=0,
            useless_prefetches=0,
        )


def _stream_run_lengths(lines: np.ndarray, max_stride: int) -> np.ndarray:
    """Lengths of maximal constant-small-stride runs in an access stream.

    A run is a maximal subsequence where consecutive accesses differ by a
    constant stride with ``1 <= |stride| <= max_stride``.  Single accesses that
    belong to no run are reported as runs of length 1.
    """
    n = len(lines)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.ones(1, dtype=np.int64)
    deltas = np.diff(lines.astype(np.int64))
    # Access i+1 extends a run when the step from access i is a small stride.
    continues = (np.abs(deltas) >= 1) & (np.abs(deltas) <= max_stride)
    # Run lengths: a stretch of k consecutive True values in `continues`
    # corresponds to a stream of k+1 accesses.  Run-length encode the mask.
    padded = np.concatenate([[False], continues, [False]])
    changes = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = changes[::2], changes[1::2]
    true_runs = ends - starts  # lengths of True stretches in `continues`
    covered_positions = int(true_runs.sum())
    lengths = list(true_runs + 1)  # accesses per stream
    # Positions not covered by any stream are singleton runs.
    n_singletons = n - (covered_positions + len(true_runs))
    lengths.extend([1] * max(n_singletons, 0))
    return np.asarray(lengths, dtype=np.int64)


def analyze_stream(
    lines: np.ndarray,
    is_write: np.ndarray | None,
    config: PrefetcherConfig,
    max_stride: int = 4,
) -> PrefetchOutcome:
    """Analyse prefetcher behaviour over an ordered cacheline stream.

    The model mirrors a streamer prefetcher: once ``config.detection_window``
    accesses of a constant small stride are seen, the remaining accesses of
    that run are covered by prefetches, and the prefetcher overshoots each
    run's end by up to ``config.degree`` lines (those overshoot lines are the
    useless prefetches).

    Nothing in ``repro`` calls this: no workload provides a cacheline stream.
    It stays only because the end-to-end benchmark's layer map
    (``perfbench/layers.py``) wraps it by name.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if not config.enabled or n == 0:
        return PrefetchOutcome.disabled(n)

    write_fraction = 0.0
    if is_write is not None and n > 0:
        write_fraction = float(np.asarray(is_write, dtype=bool).mean())

    runs = _stream_run_lengths(lines, max_stride=max_stride)
    window = config.detection_window
    # Covered accesses: portion of each run beyond the detection window.
    covered = np.clip(runs - window, 0, None)
    covered_total = int(covered.sum())
    # Issued prefetches: covered accesses plus overshoot at the end of every
    # detected stream (min(degree, run tail) lines fetched past the end).
    detected = runs > window
    overshoot = int(np.minimum(config.degree, np.maximum(runs[detected] // 2, 1)).sum()) if detected.any() else 0
    issued_total = covered_total + overshoot
    useless = overshoot

    pf_rfo = int(round(issued_total * write_fraction))
    pf_data = issued_total - pf_rfo
    return PrefetchOutcome(
        demand_accesses=n,
        covered_accesses=covered_total,
        prefetches_data_rd=pf_data,
        prefetches_rfo=pf_rfo,
        useless_prefetches=useless,
    )


def analyze_fraction(
    n_accesses: int,
    stream_fraction: float,
    config: PrefetcherConfig,
    write_fraction: float = 0.0,
    accuracy_hint: float | None = None,
) -> PrefetchOutcome:
    """Closed-form prefetcher outcome from a pattern's stream fraction.

    ``stream_fraction`` is the fraction of accesses that belong to
    prefetchable streams (a property of the access pattern).  The prefetcher
    covers that fraction (minus the detection window cost, folded into the
    stream fraction already) and wastes a small overshoot per stream, so the
    accuracy degrades gracefully as the stream fraction falls — matching the
    paper's observation that XSBench's prefetcher throttles itself down and
    produces little excess traffic despite low accuracy.
    """
    n_accesses = int(n_accesses)
    if not config.enabled or n_accesses == 0:
        return PrefetchOutcome.disabled(n_accesses)
    stream_fraction = float(np.clip(stream_fraction, 0.0, 1.0))
    covered = int(round(n_accesses * stream_fraction))
    if accuracy_hint is None:
        # Long streams (high stream fraction) waste proportionally less:
        # overshoot is one `degree` burst per stream, and streams are longer
        # when the stream fraction is higher.
        typical_run = max(8.0, 256.0 * stream_fraction)
        useless = int(round(covered * min(config.degree / typical_run, 1.0)))
    else:
        accuracy_hint = float(np.clip(accuracy_hint, 1e-6, 1.0))
        useless = int(round(covered * (1.0 - accuracy_hint) / accuracy_hint))
    issued = covered + useless
    pf_rfo = int(round(issued * float(np.clip(write_fraction, 0.0, 1.0))))
    return PrefetchOutcome(
        demand_accesses=n_accesses,
        covered_accesses=covered,
        prefetches_data_rd=issued - pf_rfo,
        prefetches_rfo=pf_rfo,
        useless_prefetches=useless,
    )
