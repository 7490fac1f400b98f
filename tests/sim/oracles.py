"""Reference paths the execution engine's plan-and-price run is tested against.

:meth:`ExecutionEngine.run` places memory once per (workload, tier geometry)
and re-prices the memoized plan for every run.  The engine it replaced did
everything in one live pass; that pass lives on here, as a differential
oracle:

* :func:`run` — one fresh random stream per run, placement, then each phase
  through :func:`run_phase` (tier split, cache stats, perf model, counters);
* :func:`tier_traffic` — the per-tier split with a masked sum per tier over
  the object's gathered page tiers (``page_range()`` index arrays);
* :func:`placements` — per-object, per-tier byte counts, one
  ``object_tier_bytes``-style masked count per (object, tier);
* :func:`access_profile` — the pairwise :meth:`PageAccessProfile.merged` fold;
* :func:`migrating_run` — :class:`MigratingExecutionEngine` as it ran on top
  of the live base loop, with its epoch loop calling :func:`run_phase` for
  its baseline.

The oracles reuse only engine helpers whose behaviour did not change with the
plan: ``_build_memory``, ``_apply_post_init_changes``,
``_phase_stream_fraction`` and the migration runtime's ``_page_hotness`` and
``_promote_hot_pages``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache import events
from repro.cache.events import CounterSet
from repro.runtime.migration import MigrationStats
from repro.sim.engine import TierTraffic
from repro.sim.interference import NoInterference
from repro.sim.perfmodel import PhaseInputs
from repro.sim.results import ObjectPlacementResult, PhaseResult, RunResult, TimeBreakdown
from repro.trace.access import PageAccessProfile
from repro.memory.objects import AddressSpace


def run(
    engine,
    spec,
    prefetch_enabled: Optional[bool] = None,
    interference=None,
    reserved_local_bytes: int = 0,
    phase_fn=None,
) -> RunResult:
    """:meth:`ExecutionEngine.run` in one live pass (no plan, no memo)."""
    phase_fn = phase_fn if phase_fn is not None else run_phase
    interference = interference if interference is not None else NoInterference()
    rng = np.random.default_rng(engine.seed)
    memory, objects = engine._build_memory(spec, reserved_local_bytes)
    prefetch = (
        engine.platform.testbed.prefetcher.enabled
        if prefetch_enabled is None
        else bool(prefetch_enabled)
    )
    phase_results = []
    clock = 0.0
    for index, phase in enumerate(spec.phases):
        if index == 1:
            engine._apply_post_init_changes(spec, memory, objects)
        result = phase_fn(engine, phase, memory, objects, rng, prefetch, interference, clock)
        phase_results.append(result)
        clock += result.runtime
    return RunResult(
        workload=spec.name,
        input_label=spec.input_label,
        scale=spec.scale,
        config_label=engine.platform.label,
        phases=tuple(phase_results),
        placements=placements(memory, objects),
        remote_capacity_ratio=memory.remote_capacity_ratio(),
        footprint_bytes=spec.footprint_bytes,
        prefetch_enabled=prefetch,
        interference_loi=interference.mean_loi(),
    )


def _gathered_placement(memory, obj) -> np.ndarray:
    return memory.page_tiers()[obj.page_range()]


def placements(memory, objects) -> tuple[ObjectPlacementResult, ...]:
    """Final placement per object, one masked page count per (object, tier)."""
    results = []
    for obj in objects.values():
        placement = _gathered_placement(memory, obj)
        results.append(
            ObjectPlacementResult(
                name=obj.name,
                size_bytes=obj.size_bytes,
                bytes_per_tier=tuple(
                    int((placement == tier).sum()) * memory.page_bytes
                    for tier in range(len(memory.usage))
                ),
                placement_policy=obj.placement,
            )
        )
    return tuple(results)


def tier_traffic(engine, phase, memory, objects, rng) -> TierTraffic:
    """Split the phase's demand traffic over the tiers with one mask per tier."""
    n_tiers = len(memory.usage)
    per_tier = np.zeros(n_tiers, dtype=np.float64)
    for name, fraction in phase.object_traffic.items():
        obj = objects[name]
        traffic = phase.dram_bytes * fraction
        if traffic <= 0 or obj.n_pages == 0:
            continue
        placement = _gathered_placement(memory, obj)
        weights = obj.pattern.page_weights(obj.n_pages, rng)
        for tier in range(n_tiers):
            mask = placement == tier
            if mask.any():
                per_tier[tier] += traffic * float(weights[mask].sum())
        unplaced = placement < 0
        if unplaced.any():
            per_tier[0] += traffic * float(weights[unplaced].sum())
    return TierTraffic(
        per_tier=tuple(per_tier),
        pooled=tuple(t.pooled for t in memory.config.tiers),
    )


def run_phase(engine, phase, memory, objects, rng, prefetch, interference, clock) -> PhaseResult:
    """One phase: live tier split, then cache stats, perf model and counters."""
    platform = engine.platform
    traffic = tier_traffic(engine, phase, memory, objects, rng)
    stream_fraction = engine._phase_stream_fraction(phase, objects)
    cache_stats = platform.cache_model.stats_from_fraction(
        demand_dram_bytes=phase.dram_bytes,
        stream_fraction=stream_fraction,
        write_fraction=phase.write_fraction,
        accuracy_hint=phase.prefetch_accuracy_hint,
        prefetch_enabled=prefetch,
    )
    line_bytes = platform.testbed.cacheline_bytes
    extra_bytes = cache_stats.useless_prefetch_lines * line_bytes
    total_demand = max(traffic.total, 1e-12)
    remote_share = traffic.remote / total_demand

    background_bw = interference.background_bandwidth(platform.link, clock)
    breakdown = platform.performance_model.phase_time(
        PhaseInputs(
            flops=phase.flops,
            local_demand_bytes=traffic.local,
            remote_demand_bytes=traffic.remote,
            local_extra_bytes=0.0,
            remote_extra_bytes=0.0,
            prefetch_coverage=cache_stats.covered_fraction,
            mlp=phase.mlp,
            background_bandwidth=background_bw,
        )
    )
    runtime = breakdown.runtime

    counters = CounterSet(cache_stats.counters.as_dict())
    counters.set(events.FP_ARITH_OPS, phase.flops)
    counters.set(events.ELAPSED_SECONDS, runtime)
    counters.set(events.OFFCORE_LOCAL_DRAM, traffic.local / line_bytes)
    counters.set(events.OFFCORE_REMOTE_DRAM, traffic.remote / line_bytes)
    own_remote_bw = (traffic.remote + extra_bytes * remote_share) / max(runtime, 1e-12)
    measured_bw = platform.link.measured_traffic(own_remote_bw + background_bw)
    counters.set(events.UPI_TRAFFIC_BYTES, measured_bw * runtime)
    utilization = platform.link.utilization(own_remote_bw + background_bw)
    counters.set(events.UPI_UTILIZATION, utilization)

    return PhaseResult(
        name=phase.name,
        runtime=runtime,
        flops=phase.flops,
        dram_bytes=phase.dram_bytes,
        local_bytes=traffic.local,
        remote_bytes=traffic.remote,
        prefetch_coverage=cache_stats.covered_fraction,
        prefetch_accuracy=cache_stats.accuracy,
        excess_traffic_fraction=cache_stats.excess_traffic_fraction,
        counters=counters,
        breakdown=breakdown,
        link_utilization=utilization,
        background_bandwidth=background_bw,
    )


def access_profile(engine, spec, phases: Optional[Sequence[str]] = None) -> PageAccessProfile:
    """:meth:`ExecutionEngine.access_profile` as a pairwise ``merged`` fold."""
    rng = np.random.default_rng(engine.seed)
    testbed = engine.platform.testbed
    space = AddressSpace(page_bytes=testbed.page_bytes, line_bytes=testbed.cacheline_bytes)
    objects = {o.name: o for o in space.register_all(spec.fresh_objects())}
    selected = set(phases) if phases is not None else None
    profile = PageAccessProfile(np.empty(0, dtype=np.int64), np.empty(0))
    for phase in spec.phases:
        if selected is not None and phase.name not in selected:
            continue
        for name, fraction in phase.object_traffic.items():
            obj = objects[name]
            traffic_lines = phase.dram_bytes * fraction / testbed.cacheline_bytes
            if traffic_lines <= 0 or obj.n_pages == 0:
                continue
            weights = obj.pattern.page_weights(obj.n_pages, rng)
            profile = profile.merged(PageAccessProfile(obj.page_range(), weights * traffic_lines))
    return profile


# -- the migration runtime on the live loop ------------------------------------------


def migrating_run(
    engine,
    spec,
    prefetch_enabled: Optional[bool] = None,
    interference=None,
    reserved_local_bytes: int = 0,
) -> tuple[RunResult, MigrationStats]:
    """:meth:`MigratingExecutionEngine.run`: the live loop with epoch phases."""
    engine._promoted = 0
    engine._demoted = 0
    engine._migration_seconds = 0.0
    engine._epochs = 0
    result = run(
        engine,
        spec,
        prefetch_enabled=prefetch_enabled,
        interference=interference,
        reserved_local_bytes=reserved_local_bytes,
        phase_fn=migrating_run_phase,
    )
    stats = MigrationStats(
        promoted_pages=engine._promoted,
        demoted_pages=engine._demoted,
        migration_seconds=engine._migration_seconds,
        epochs=engine._epochs,
    )
    return result, stats


def migrating_run_phase(engine, phase, memory, objects, rng, prefetch, interference, clock):
    """The migration runtime's phase: a live baseline, then epochs with promotions."""
    platform = engine.platform
    policy = engine.policy
    baseline = run_phase(engine, phase, memory, objects, rng, prefetch, interference, clock)
    n_epochs = max(int(np.ceil(baseline.runtime / policy.epoch_seconds)), 1)
    if n_epochs <= 1 or len(memory.usage) < 2:
        engine._epochs += n_epochs
        return baseline

    hot_pages, hot_counts = engine._page_hotness(phase, memory, objects, rng)
    line_bytes = platform.testbed.cacheline_bytes
    counters = CounterSet()
    total_runtime = 0.0
    total_local = 0.0
    total_remote = 0.0
    migration_time_total = 0.0
    breakdowns = []

    for epoch in range(n_epochs):
        if epoch > 0:
            migration_time = engine._promote_hot_pages(hot_pages, hot_counts, memory)
            migration_time_total += migration_time
            engine._migration_seconds += migration_time
        epoch_fraction = 1.0 / n_epochs
        traffic = tier_traffic(engine, phase, memory, objects, rng)
        local_bytes = traffic.local * epoch_fraction
        remote_bytes = traffic.remote * epoch_fraction
        stream_fraction = engine._phase_stream_fraction(phase, objects)
        cache_stats = platform.cache_model.stats_from_fraction(
            demand_dram_bytes=phase.dram_bytes * epoch_fraction,
            stream_fraction=stream_fraction,
            write_fraction=phase.write_fraction,
            accuracy_hint=phase.prefetch_accuracy_hint,
            prefetch_enabled=prefetch,
        )
        background = interference.background_bandwidth(platform.link, clock + total_runtime)
        breakdown = platform.performance_model.phase_time(
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
    engine._epochs += n_epochs
    counters.set(events.FP_ARITH_OPS, phase.flops)
    counters.set(events.ELAPSED_SECONDS, total_runtime)
    counters.set(events.OFFCORE_LOCAL_DRAM, total_local / line_bytes)
    counters.set(events.OFFCORE_REMOTE_DRAM, total_remote / line_bytes)
    own_remote_bw = total_remote / max(total_runtime, 1e-12)
    background = interference.background_bandwidth(platform.link, clock)
    counters.set(
        events.UPI_TRAFFIC_BYTES,
        platform.link.measured_traffic(own_remote_bw + background) * total_runtime,
    )
    utilization = platform.link.utilization(own_remote_bw + background)
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
