"""Transparent hot-page migration runtime (dynamic data placement).

Section 5.2 of the paper contrasts two ways of fixing a bad access-ratio on a
multi-tier system: *static* solutions (modify allocation sites — the BFS case
study) and *dynamic* solutions that detect hot pages at runtime and migrate
them into the fast tier (Thermostat, TPP and the NUMA-balancing family).  The
paper's argument against relying on dynamic runtimes in HPC is that they take
time to gather information, adapt slowly to phase changes, and therefore add
run-to-run performance variation.

This module provides such a runtime for the simulator so that the argument can
be evaluated quantitatively: :class:`MigratingExecutionEngine` executes each
phase in epochs; at every epoch boundary it promotes the hottest
remote-resident pages observed during the *previous* epoch (the detection lag)
into node-local memory, demoting cold local pages when space is needed, and
charges the migration traffic to the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.errors import ConfigurationError
from ..memory.objects import MemoryObject
from ..memory.tiered import TieredMemory
from ..sim.engine import ExecutionEngine
from ..sim.interference import InterferenceSource, NoInterference
from ..sim.results import PhaseResult, RunResult, TimeBreakdown
from ..telemetry import metrics, trace_span
from ..workloads.base import PhaseSpec, WorkloadSpec
from ..cache import events
from ..cache.events import CounterSet
from ..sim.perfmodel import PhaseInputs


@dataclass(frozen=True)
class MigrationPolicy:
    """Behaviour of the page-migration runtime.

    Attributes
    ----------
    epoch_seconds:
        Length of one observation/migration epoch (simulated seconds).
    promotion_budget_pages:
        Maximum number of pages promoted per epoch (migration bandwidth is
        finite; NUMA balancing rate-limits promotions the same way).
    hotness_quantile:
        Only pages whose access count is above this quantile of the observed
        per-page counts are candidates for promotion.
    demote_cold_pages:
        Whether cold local pages may be demoted to make room for promotions
        when the local tier is full.
    migration_bandwidth:
        Bandwidth available for copying pages between tiers, bytes/s.
    """

    epoch_seconds: float = 5.0
    promotion_budget_pages: int = 16384
    hotness_quantile: float = 0.5
    demote_cold_pages: bool = True
    migration_bandwidth: float = 8.0e9

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ConfigurationError("epoch length must be positive")
        if self.promotion_budget_pages < 0:
            raise ConfigurationError("promotion budget must be >= 0")
        if not 0.0 <= self.hotness_quantile < 1.0:
            raise ConfigurationError("hotness quantile must be in [0, 1)")
        if self.migration_bandwidth <= 0:
            raise ConfigurationError("migration bandwidth must be positive")


@dataclass(frozen=True)
class MigrationStats:
    """What the runtime did over one run."""

    promoted_pages: int
    demoted_pages: int
    migration_seconds: float
    epochs: int


class MigratingExecutionEngine(ExecutionEngine):
    """Execution engine with a transparent hot-page promotion runtime.

    The engine behaves exactly like :class:`~repro.sim.engine.ExecutionEngine`
    except that each phase is executed in epochs of ``policy.epoch_seconds``:
    the hotness observed in epoch *k* drives the promotions applied before
    epoch *k+1*, and every promotion/demotion charges copy time.  Statistics
    of the last run are available as :attr:`last_migration_stats`.

    Pages move between epochs and the epoch count follows from the priced
    runtime, so no interference-free plan can describe such a run: the
    engine keeps its own phase loop, with one live random stream per run,
    and shares only the base engine's placement, tier-split and pricing
    helpers.
    """

    def __init__(self, platform, policy: MigrationPolicy | None = None, seed: int = 0) -> None:
        super().__init__(platform, seed=seed)
        self.policy = policy if policy is not None else MigrationPolicy()
        self.last_migration_stats: MigrationStats | None = None
        self._promoted = 0
        self._demoted = 0
        self._migration_seconds = 0.0
        self._epochs = 0

    # -- hooks -------------------------------------------------------------------------

    def run(
        self,
        spec: WorkloadSpec,
        prefetch_enabled: bool | None = None,
        interference: InterferenceSource | None = None,
        reserved_local_bytes: int = 0,
    ) -> RunResult:
        self._promoted = 0
        self._demoted = 0
        self._migration_seconds = 0.0
        self._epochs = 0
        interference = interference if interference is not None else NoInterference()
        rng = np.random.default_rng(self.seed)
        registry = metrics()
        registry.counter("engine.runs").inc()
        registry.counter("engine.phases").inc(len(spec.phases))

        with trace_span("engine.run", workload=spec.name):
            memory, objects = self._build_memory(spec, reserved_local_bytes)
            prefetch = self._prefetch_flag(prefetch_enabled)
            phase_results: list[PhaseResult] = []
            clock = 0.0
            for index, phase in enumerate(spec.phases):
                if index == 1:
                    self._apply_post_init_changes(spec, memory, objects)
                result = self._run_phase(
                    phase, memory, objects, rng, prefetch, interference, clock
                )
                phase_results.append(result)
                clock += result.runtime

        self.last_migration_stats = MigrationStats(
            promoted_pages=self._promoted,
            demoted_pages=self._demoted,
            migration_seconds=self._migration_seconds,
            epochs=self._epochs,
        )
        return self._result(
            spec,
            phase_results,
            self._placements(memory, objects),
            memory.remote_capacity_ratio(),
            prefetch,
            interference,
        )

    # -- hot-page accounting --------------------------------------------------------------

    def _page_hotness(
        self,
        phase: PhaseSpec,
        memory: TieredMemory,
        objects: dict[str, MemoryObject],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(page ids, per-page access counts) of one phase's traffic."""
        pages: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        line_bytes = self.platform.testbed.cacheline_bytes
        for name, fraction in phase.object_traffic.items():
            obj = objects[name]
            traffic_lines = phase.dram_bytes * fraction / line_bytes
            if traffic_lines <= 0 or obj.n_pages == 0:
                continue
            weights = obj.pattern.page_weights(obj.n_pages, rng)
            pages.append(obj.page_range())
            counts.append(weights * traffic_lines)
        if not pages:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.concatenate(pages), np.concatenate(counts)

    def _promote_hot_pages(
        self,
        hot_pages: np.ndarray,
        hot_counts: np.ndarray,
        memory: TieredMemory,
    ) -> float:
        """Promote the hottest remote pages; returns the migration time charged."""
        if len(hot_pages) == 0 or self.policy.promotion_budget_pages == 0:
            return 0.0
        page_tiers = memory.page_tiers()
        resident_remote = page_tiers[hot_pages] == (len(memory.usage) - 1)
        if not resident_remote.any():
            return 0.0
        candidate_pages = hot_pages[resident_remote]
        candidate_counts = hot_counts[resident_remote]
        threshold = np.quantile(hot_counts, self.policy.hotness_quantile) if len(hot_counts) else 0.0
        hot_mask = candidate_counts >= threshold
        candidate_pages = candidate_pages[hot_mask]
        candidate_counts = candidate_counts[hot_mask]
        if len(candidate_pages) == 0:
            return 0.0
        order = np.argsort(candidate_counts)[::-1]
        to_promote = candidate_pages[order][: self.policy.promotion_budget_pages]

        page_bytes = memory.page_bytes
        free_local_pages = max(memory.usage[0].free_bytes // page_bytes, 0)
        demoted = 0
        if free_local_pages < len(to_promote) and self.policy.demote_cold_pages:
            # Demote the coldest local pages to make room.
            local_pages = np.flatnonzero(memory.page_tiers() == 0)
            if len(local_pages) > 0:
                cold_needed = int(len(to_promote) - free_local_pages)
                hotness_by_page = np.zeros(len(memory.page_tiers()))
                hotness_by_page[hot_pages] = hot_counts
                cold_order = np.argsort(hotness_by_page[local_pages])
                demote_pages = local_pages[cold_order][:cold_needed]
                demoted = self._move_pages(demote_pages, memory, to_tier=len(memory.usage) - 1)
        promoted = self._move_pages(to_promote, memory, to_tier=0)
        self._promoted += promoted
        self._demoted += demoted
        moved_bytes = (promoted + demoted) * page_bytes
        return moved_bytes / self.policy.migration_bandwidth

    @staticmethod
    def _move_pages(pages: np.ndarray, memory: TieredMemory, to_tier: int) -> int:
        """Move individual pages between tiers, respecting destination capacity."""
        page_bytes = memory.page_bytes
        free_pages = max(memory.usage[to_tier].free_bytes // page_bytes, 0)
        pages = pages[:free_pages]
        if len(pages) == 0:
            return 0
        tiers = memory._page_tier  # intentional: page-granular move, same invariants as migrate()
        for tier_index in range(len(memory.usage)):
            tier_pages = pages[tiers[pages] == tier_index]
            memory._usage[tier_index].used_bytes -= len(tier_pages) * page_bytes
        tiers[pages] = to_tier
        memory._usage[to_tier].used_bytes += len(pages) * page_bytes
        memory.migrations += len(pages)
        return int(len(pages))

    # -- phase execution in epochs -----------------------------------------------------------

    def _run_phase(
        self,
        phase: PhaseSpec,
        memory: TieredMemory,
        objects: dict[str, MemoryObject],
        rng: np.random.Generator,
        prefetch: bool,
        interference: InterferenceSource,
        clock: float,
    ) -> PhaseResult:
        baseline = self._price_phase(
            phase,
            self._tier_traffic(phase, memory, objects, rng),
            self._phase_stream_fraction(phase, objects),
            prefetch,
            interference.background_bandwidth(self.platform.link, clock),
        )
        n_epochs = max(int(np.ceil(baseline.runtime / self.policy.epoch_seconds)), 1)
        if n_epochs <= 1 or len(memory.usage) < 2:
            self._epochs += n_epochs
            return baseline

        hot_pages, hot_counts = self._page_hotness(phase, memory, objects, rng)
        line_bytes = self.platform.testbed.cacheline_bytes
        counters = CounterSet()
        total_runtime = 0.0
        total_local = 0.0
        total_remote = 0.0
        migration_time_total = 0.0
        breakdowns: list[TimeBreakdown] = []

        for epoch in range(n_epochs):
            if epoch > 0:
                # Promotion decisions use the hotness observed so far (lag of
                # one epoch) and charge the copy time.
                migration_time = self._promote_hot_pages(hot_pages, hot_counts, memory)
                migration_time_total += migration_time
                self._migration_seconds += migration_time
            epoch_fraction = 1.0 / n_epochs
            traffic = self._tier_traffic(phase, memory, objects, rng)
            local_bytes = traffic.local * epoch_fraction
            remote_bytes = traffic.remote * epoch_fraction
            stream_fraction = self._phase_stream_fraction(phase, objects)
            cache_stats = self.platform.cache_model.stats_from_fraction(
                demand_dram_bytes=phase.dram_bytes * epoch_fraction,
                stream_fraction=stream_fraction,
                write_fraction=phase.write_fraction,
                accuracy_hint=phase.prefetch_accuracy_hint,
                prefetch_enabled=prefetch,
            )
            background = interference.background_bandwidth(
                self.platform.link, clock + total_runtime
            )
            breakdown = self.platform.performance_model.phase_time(
                PhaseInputs(
                    flops=phase.flops * epoch_fraction,
                    local_demand_bytes=local_bytes,
                    remote_demand_bytes=remote_bytes,
                    prefetch_coverage=cache_stats.covered_fraction,
                    mlp=phase.mlp,
                    background_bandwidth=background,
                )
            )
            breakdowns.append(breakdown)
            counters = counters.merged(cache_stats.counters)
            total_runtime += breakdown.runtime
            total_local += local_bytes
            total_remote += remote_bytes

        total_runtime += migration_time_total
        self._epochs += n_epochs
        counters.set(events.FP_ARITH_OPS, phase.flops)
        counters.set(events.ELAPSED_SECONDS, total_runtime)
        counters.set(events.OFFCORE_LOCAL_DRAM, total_local / line_bytes)
        counters.set(events.OFFCORE_REMOTE_DRAM, total_remote / line_bytes)
        own_remote_bw = total_remote / max(total_runtime, 1e-12)
        background = interference.background_bandwidth(self.platform.link, clock)
        counters.set(
            events.UPI_TRAFFIC_BYTES,
            self.platform.link.measured_traffic(own_remote_bw + background) * total_runtime,
        )
        utilization = self.platform.link.utilization(own_remote_bw + background)
        counters.set(events.UPI_UTILIZATION, utilization)

        merged_breakdown = TimeBreakdown(
            compute_time=sum(b.compute_time for b in breakdowns),
            local_bandwidth_time=sum(b.local_bandwidth_time for b in breakdowns),
            remote_bandwidth_time=sum(b.remote_bandwidth_time for b in breakdowns),
            latency_stall_time=sum(b.latency_stall_time for b in breakdowns) + migration_time_total,
            runtime=total_runtime,
        )
        return PhaseResult(
            name=phase.name,
            runtime=total_runtime,
            flops=phase.flops,
            dram_bytes=phase.dram_bytes,
            local_bytes=total_local,
            remote_bytes=total_remote,
            prefetch_coverage=baseline.prefetch_coverage,
            prefetch_accuracy=baseline.prefetch_accuracy,
            excess_traffic_fraction=baseline.excess_traffic_fraction,
            counters=counters,
            breakdown=merged_breakdown,
            link_utilization=utilization,
            background_bandwidth=baseline.background_bandwidth,
        )
