"""Cache hierarchy model connecting access patterns to memory-side counters.

The execution engine characterises each kernel by the memory traffic it
generates *past the last-level cache* (the quantity the roofline model and the
paper's offcore counters are defined on).  This module turns that traffic plus
the kernel's access pattern into the hardware-counter view the profiler
expects:

* ``L2_LINES_IN`` — all line fills (demand + prefetch),
* ``PF_L2_DATA_RD`` / ``PF_L2_RFO`` — prefetch requests issued,
* ``USELESS_HWPF`` — prefetched lines never used,
* the extra ("excessive") DRAM traffic caused by useless prefetches, and
* the fraction of demand traffic whose latency is hidden by prefetching,
  which the performance model uses to translate coverage into speedup.

There is one path, in closed form:
:meth:`CacheHierarchyModel.stats_from_fraction` prices a kernel from its
pattern's stream fraction, and no cacheline stream is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config.testbed import TestbedConfig
from . import events
from .events import CounterSet
from .prefetcher import PrefetchOutcome, analyze_fraction


@dataclass(frozen=True)
class KernelCacheStats:
    """Memory-hierarchy statistics of one kernel execution.

    Attributes
    ----------
    demand_dram_lines:
        Cachelines the kernel demands from memory (excludes prefetch waste).
    useless_prefetch_lines:
        Additional lines fetched by the prefetcher and never used.
    covered_fraction:
        Fraction of demand lines whose fetch was initiated by the prefetcher
        ahead of the demand access (prefetch coverage of this kernel).
    accuracy:
        Prefetch accuracy over this kernel.
    counters:
        Counter set with the event names from :mod:`repro.cache.events`.
    """

    demand_dram_lines: float
    useless_prefetch_lines: float
    covered_fraction: float
    accuracy: float
    counters: CounterSet

    @property
    def total_dram_lines(self) -> float:
        """All lines transferred from memory, including prefetch waste."""
        return self.demand_dram_lines + self.useless_prefetch_lines

    @property
    def excess_traffic_fraction(self) -> float:
        """Extra traffic from useless prefetches relative to demand traffic."""
        if self.demand_dram_lines <= 0:
            return 0.0
        return self.useless_prefetch_lines / self.demand_dram_lines


class CacheHierarchyModel:
    """Produces :class:`KernelCacheStats` for kernels running on a testbed."""

    def __init__(self, testbed: TestbedConfig) -> None:
        self.testbed = testbed
        self.line_bytes = testbed.cacheline_bytes

    def stats_from_fraction(
        self,
        demand_dram_bytes: float,
        stream_fraction: float,
        write_fraction: float = 0.0,
        accuracy_hint: Optional[float] = None,
        prefetch_enabled: Optional[bool] = None,
    ) -> KernelCacheStats:
        """Closed-form kernel statistics from the pattern's stream fraction.

        Parameters
        ----------
        demand_dram_bytes:
            Bytes the kernel must move from memory to execute (its roofline
            traffic).
        stream_fraction:
            Fraction of those accesses belonging to prefetchable streams.
        write_fraction:
            Fraction of traffic that is stores (RFO).
        accuracy_hint:
            Optional override of the prefetcher accuracy (workload models use
            this to pin application-specific behaviour such as SuperLU's
            37% excess traffic).
        prefetch_enabled:
            Override the testbed's prefetcher switch (used for the
            prefetch-on/off experiments of Figures 7 and 8).
        """
        enabled = (
            self.testbed.prefetcher.enabled if prefetch_enabled is None else prefetch_enabled
        )
        config = self.testbed.prefetcher
        if enabled != config.enabled:
            config = config.disabled() if not enabled else type(config)(
                enabled=True,
                degree=config.degree,
                detection_window=config.detection_window,
            )
        n_lines = int(round(max(demand_dram_bytes, 0.0) / self.line_bytes))
        outcome = analyze_fraction(
            n_accesses=n_lines,
            stream_fraction=stream_fraction,
            config=config,
            write_fraction=write_fraction,
            accuracy_hint=accuracy_hint,
        )
        return self._build_stats(n_lines, outcome)

    def _build_stats(self, demand_lines: int, outcome: PrefetchOutcome) -> KernelCacheStats:
        if outcome.demand_accesses > 0:
            scale = demand_lines / outcome.demand_accesses
        else:
            scale = 0.0
        covered = outcome.coverage
        accuracy = outcome.accuracy
        useless_lines = outcome.useless_prefetches * scale
        pf_data = outcome.prefetches_data_rd * scale
        pf_rfo = outcome.prefetches_rfo * scale

        counters = CounterSet()
        counters.add(events.L2_LINES_IN, demand_lines + useless_lines)
        counters.add(events.PF_L2_DATA_RD, pf_data)
        counters.add(events.PF_L2_RFO, pf_rfo)
        counters.add(events.USELESS_HWPF, useless_lines)
        counters.add(events.OFFCORE_L3_MISS, demand_lines + useless_lines)
        return KernelCacheStats(
            demand_dram_lines=float(demand_lines),
            useless_prefetch_lines=float(useless_lines),
            covered_fraction=float(covered),
            accuracy=float(accuracy),
            counters=counters,
        )

    # -- derived metric helpers (paper Eq. 1 and Eq. 2) ---------------------------

    @staticmethod
    def accuracy_from_counters(counters: CounterSet) -> float:
        """Prefetch accuracy from raw counters (paper Equation 1)."""
        issued = counters[events.PF_L2_DATA_RD] + counters[events.PF_L2_RFO]
        if issued <= 0:
            return 0.0
        return (issued - counters[events.USELESS_HWPF]) / issued

    @staticmethod
    def coverage_from_counters(counters: CounterSet) -> float:
        """Prefetch coverage from raw counters (paper Equation 2)."""
        useful_fills = counters[events.L2_LINES_IN] - counters[events.USELESS_HWPF]
        if useful_fills <= 0:
            return 0.0
        issued = counters[events.PF_L2_DATA_RD] + counters[events.PF_L2_RFO]
        useful_prefetches = issued - counters[events.USELESS_HWPF]
        return float(np.clip(useful_prefetches / useful_fills, 0.0, 1.0))
