"""Execution engine: runs workload specifications on a platform.

The engine is the simulator's stand-in for "running the application on the
testbed".  It

1. lays the workload's memory objects out in a virtual address space in
   allocation order,
2. places their pages on the platform's memory tiers with the first-touch
   policy (or whatever explicit placement an object requests),
3. executes the phases: for each phase it splits the phase's DRAM traffic over
   the tiers according to which pages of which objects the traffic targets,
   derives the prefetcher's behaviour from the access patterns, asks the
   performance model for the runtime under the configured interference, and
4. emits the counters the multi-level profiler consumes.

Dynamic (late) allocations and objects freed after initialisation are applied
between the first and second phase, which is what the BFS case study of
Section 7.1 manipulates.

A run has two passes.  The *plan* covers steps 1 and 2 and each phase's tier
split and stream fraction.  It does not depend on the prefetch switch or on
the interference, and it is the run's only consumer of random numbers.  It is
a pure function of the workload, the tier geometry, the reserved local
bytes, the seed and the testbed, and is memoized per that key.  The
*pricing* pass then turns each planned phase into a runtime and counters for
this run's prefetch switch and background traffic.  The profiler's prefetch
on/off pair and its LoI sweep therefore place memory once and price the
plan several times.

Uniform and hot/cold page weights are never drawn: those patterns describe
their weights as runs (``page_runs``), the tier split sums tier slices of
the runs with :func:`~repro.trace.patterns.pairwise_sum`, to the bits a
dense slice sum gives, and the access counts
(:meth:`ExecutionEngine.access_pieces`) stay runs, which the Level-1 curve
reads without expanding them.  The plans of one workload on different tier
geometries, and its access counts, draw the same random (Zipf, gather) page
weights: each pass seeds its generator alike and draws over the same page
counts in the same order.  Inside a :func:`sharing_draws` scope, which the
multi-level profiler opens around its levels, each such draw is made once
and handed out again (see :func:`_page_weights`).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ..cache import events
from ..cache.events import CounterSet
from ..config.errors import ConfigurationError, WorkloadError
from ..memory.objects import AddressSpace, MemoryObject
from ..memory.tiered import UNPLACED, TieredMemory
from ..telemetry import metrics, trace_span
from ..trace.access import PageAccessProfile
from ..trace.patterns import Piece, Runs, expand_runs, pairwise_sum
from ..workloads.base import PhaseSpec, WorkloadSpec
from .interference import InterferenceSource, NoInterference
from .perfmodel import PhaseInputs
from .platform import Platform
from .results import ObjectPlacementResult, PhaseResult, RunResult


@dataclass(frozen=True)
class TierTraffic:
    """Per-tier demand traffic of one phase, bytes.

    The performance model distinguishes two paths: node-local memory and
    memory reached over the fabric link.  ``pooled`` records which tiers sit
    behind the link; on systems with three or more tiers this is what routes
    the *middle* tiers' bytes explicitly, so ``local + remote`` always covers
    the whole demand instead of silently dropping intermediate tiers.
    """

    per_tier: tuple[float, ...]
    #: Which tiers are fabric-attached (pooled).  When empty, defaults to
    #: "top tier is node-local, every other tier is behind the link".
    pooled: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if self.pooled and len(self.pooled) != len(self.per_tier):
            raise ConfigurationError(
                f"pooled mask has {len(self.pooled)} entries for "
                f"{len(self.per_tier)} tiers"
            )

    def _pooled_mask(self) -> tuple[bool, ...]:
        if self.pooled:
            return self.pooled
        return tuple(i > 0 for i in range(len(self.per_tier)))

    @property
    def local(self) -> float:
        """Traffic served by node-local (non-pooled) tiers."""
        mask = self._pooled_mask()
        return float(sum(t for t, pooled in zip(self.per_tier, mask) if not pooled))

    @property
    def remote(self) -> float:
        """Traffic served by fabric-attached (pooled) tiers; 0 on single-tier systems."""
        mask = self._pooled_mask()
        return float(sum(t for t, pooled in zip(self.per_tier, mask) if pooled))

    @property
    def total(self) -> float:
        """All demand traffic."""
        return float(sum(self.per_tier))


def _tier_weights(
    placement: np.ndarray, weights: Union[Runs, np.ndarray], n_tiers: int
) -> list[tuple[int, float]]:
    """(tier, summed page weight) for each tier holding some of an object's pages.

    ``weights`` are the object's runs or its dense per-page weights (see
    :func:`_page_weights`).  Pages that were freed (UNPLACED) no longer
    generate traffic: their share comes last and goes to the local tier, as
    a freed-and-reused region's would.  Under first-touch, local or remote
    placement the tier index never decreases along an object's pages, so
    each tier's pages are one slice.  A slice sum adds the same weights in
    the same order as the masked sum, hence gives the same bits, without
    gathering them; :func:`~repro.trace.patterns.pairwise_sum` gives those
    bits from the runs without expanding them.  Other placements
    (interleaving) select each tier's weights with a mask, from expanded
    runs.
    """
    if (placement[1:] >= placement[:-1]).all():
        edges = np.searchsorted(
            placement, np.arange(UNPLACED, n_tiers + 1, dtype=placement.dtype)
        ).tolist()
        bounds = [(tier, edges[tier + 1], edges[tier + 2]) for tier in range(n_tiers)]
        bounds.append((0, edges[0], edges[1]))
        if isinstance(weights, tuple):
            return [(tier, pairwise_sum(weights, lo, hi)) for tier, lo, hi in bounds if hi > lo]
        return [(tier, float(weights[lo:hi].sum())) for tier, lo, hi in bounds if hi > lo]
    if isinstance(weights, tuple):
        weights = expand_runs(weights)
    parts = [(tier, weights[placement == tier]) for tier in range(n_tiers)]
    parts.append((0, weights[placement == UNPLACED]))
    return [(tier, float(part.sum())) for tier, part in parts if len(part)]


#: One object's access counts so far: runs in page order, or a dense array.
_Counts = Union[list[tuple[float, int]], np.ndarray]


def _add_counts(
    acc: Optional[_Counts], weights: Union[Runs, np.ndarray], traffic_lines: float
) -> _Counts:
    """One object's counts after adding ``weights * traffic_lines`` to ``acc``.

    ``acc`` is None before the object's first traffic (every count 0.0).
    Runs plus runs stay runs, cut at both sides' edges; anything with a
    dense side is dense.  Each page gets ``count + weight * traffic_lines``,
    the float a page-length array gets.
    """
    if isinstance(weights, tuple):
        products = [(value * traffic_lines, pages) for value, pages in weights]
        if acc is None:
            return [(0.0 + product, pages) for product, pages in products]
        if isinstance(acc, np.ndarray):
            first = 0
            for product, pages in products:
                acc[first : first + pages] += product
                first += pages
            return acc
        merged = []
        theirs = iter(products)
        product, left = 0.0, 0
        for count, pages in acc:
            while pages:
                if not left:
                    product, left = next(theirs)
                taken = min(pages, left)
                merged.append((count + product, taken))
                pages -= taken
                left -= taken
        return merged
    if acc is None:
        acc = weights * traffic_lines
        acc += 0.0
        return acc
    if not isinstance(acc, np.ndarray):
        acc = expand_runs(acc)
    acc += weights * traffic_lines
    return acc


@dataclass(frozen=True)
class _PhasePlan:
    """One phase before it is priced: where its traffic goes and how it streams."""

    traffic: TierTraffic
    stream_fraction: float


@dataclass(frozen=True)
class _RunPlan:
    """The interference-free half of a run (see the module docstring)."""

    phases: tuple[_PhasePlan, ...]
    placements: tuple[ObjectPlacementResult, ...]
    remote_capacity_ratio: float


#: Most plans :meth:`ExecutionEngine._plan` keeps (least recently used go first).
_PLAN_MEMO_SIZE = 64
#: (id(spec), tier config, reserved local bytes, seed, testbed) -> (spec, plan).
_plans: OrderedDict = OrderedDict()

#: The draw memo of the innermost open :func:`sharing_draws` scope (None: none open).
_draw_memo: ContextVar[Optional[dict]] = ContextVar("draw_memo", default=None)


@contextmanager
def sharing_draws(memo: dict) -> Iterator[None]:
    """Share page-weight draws through ``memo`` while the block runs.

    The caller owns ``memo`` and decides how long its arrays live: outside
    every scope no draw is kept, so the fabric's baselines, the case studies
    and the migrating engine hold nothing.
    """
    token = _draw_memo.set(memo)
    try:
        yield
    finally:
        _draw_memo.reset(token)


def _frozen(state):
    """A hashable copy of a bit generator's (nested dict) state."""
    if isinstance(state, dict):
        return tuple((key, _frozen(value)) for key, value in state.items())
    return state


def _page_weights(
    pattern, n_pages: int, rng: np.random.Generator
) -> Union[Runs, np.ndarray]:
    """The weights of ``pattern`` over ``n_pages`` pages: its runs, or a dense draw.

    A pattern whose pages share a few weights (uniform, hot/cold) answers
    with its ``page_runs``: its weights are never drawn, and runs hold
    nothing worth sharing.  Any other pattern draws
    ``pattern.page_weights(n_pages, rng)``, shared inside a
    :func:`sharing_draws` scope.  A draw is a pure function of the pattern,
    the page count and the generator state before it, so that triple is the
    memo key.  A hit hands out the stored read-only weights and moves the
    generator to the state the draw left it in: bit for bit what drawing
    again would give, in any call order.  Only draws that moved the
    generator are stored.  A pattern that cannot be hashed draws afresh.
    """
    registry = metrics()
    registry.counter("engine.draws").inc()
    page_runs = getattr(pattern, "page_runs", None)
    if page_runs is not None:
        return page_runs(n_pages)
    memo = _draw_memo.get()
    if memo is None:
        return pattern.page_weights(n_pages, rng)
    bit_generator = rng.bit_generator
    before = bit_generator.state
    key = (pattern, n_pages, _frozen(before))
    try:
        entry = memo.get(key)
    except TypeError:  # an unhashable pattern
        return pattern.page_weights(n_pages, rng)
    if entry is not None:
        weights, after = entry
        bit_generator.state = after
        registry.counter("engine.draws.shared").inc()
        return weights
    weights = pattern.page_weights(n_pages, rng)
    after = bit_generator.state
    if after != before:
        weights.flags.writeable = False
        memo[key] = (weights, after)
    return weights


class ExecutionEngine:
    """Runs :class:`~repro.workloads.base.WorkloadSpec` objects on a :class:`Platform`."""

    def __init__(self, platform: Platform, seed: int = 0) -> None:
        self.platform = platform
        self.seed = int(seed)

    # -- public API --------------------------------------------------------------------

    def run(
        self,
        spec: WorkloadSpec,
        prefetch_enabled: Optional[bool] = None,
        interference: Optional[InterferenceSource] = None,
        reserved_local_bytes: int = 0,
    ) -> RunResult:
        """Execute ``spec`` and return the full :class:`RunResult`.

        Parameters
        ----------
        spec:
            The workload at a specific input problem.
        prefetch_enabled:
            Override the testbed's hardware-prefetching switch (None keeps the
            platform default) — the lever behind Figures 7 and 8.
        interference:
            Background traffic on the link to the memory pool (None = idle).
        reserved_local_bytes:
            Local memory occupied by other software (`setup_waste`), reducing
            what first-touch placement can use.
        """
        interference = interference if interference is not None else NoInterference()
        registry = metrics()
        registry.counter("engine.runs").inc()
        registry.counter("engine.phases").inc(len(spec.phases))

        with trace_span("engine.run", workload=spec.name):
            plan = self._plan(spec, reserved_local_bytes)
            prefetch = self._prefetch_flag(prefetch_enabled)
            phase_results: list[PhaseResult] = []
            clock = 0.0
            for phase, planned in zip(spec.phases, plan.phases):
                result = self._price_phase(
                    phase,
                    planned.traffic,
                    planned.stream_fraction,
                    prefetch,
                    interference.background_bandwidth(self.platform.link, clock),
                )
                phase_results.append(result)
                clock += result.runtime
        return self._result(
            spec,
            phase_results,
            plan.placements,
            plan.remote_capacity_ratio,
            prefetch,
            interference,
        )

    def access_pieces(
        self, spec: WorkloadSpec, phases: Optional[Sequence[str]] = None
    ) -> list[tuple[int, Piece]]:
        """Each touched object's page-level access counts, in page order.

        Returns ``(first page, piece)`` pairs: a run ``(count, pages)`` for
        pages that share a count, a dense array otherwise.  An object whose
        traffic comes only from runs (uniform, hot/cold weights) stays runs;
        any dense draw (Zipf, gather) makes it one array.  Each phase adds
        its traffic to the counts, starting from 0.0, with the products and
        additions a page-length array would get, in phase order, from the
        same draws.  :meth:`access_profile` is the expansion;
        :func:`~repro.trace.footprint.scaling_curve_from_pieces` reads the
        pieces as they are.
        """
        rng = np.random.default_rng(self.seed)
        space = AddressSpace(
            page_bytes=self.platform.testbed.page_bytes,
            line_bytes=self.platform.testbed.cacheline_bytes,
        )
        objects = {o.name: o for o in space.register_all(spec.fresh_objects())}
        selected = set(phases) if phases is not None else None
        counts: dict[str, _Counts] = {}
        for phase in spec.phases:
            if selected is not None and phase.name not in selected:
                continue
            for name, fraction in phase.object_traffic.items():
                obj = objects[name]
                traffic_lines = (
                    phase.dram_bytes * fraction / self.platform.testbed.cacheline_bytes
                )
                if traffic_lines <= 0 or obj.n_pages == 0:
                    continue
                weights = _page_weights(obj.pattern, obj.n_pages, rng)
                counts[name] = _add_counts(counts.get(name), weights, traffic_lines)
        pieces: list[tuple[int, Piece]] = []
        for obj in sorted((objects[name] for name in counts), key=lambda o: o.first_page):
            acc = counts[obj.name]
            if isinstance(acc, np.ndarray):
                pieces.append((obj.first_page, acc))
                continue
            first = obj.first_page
            for run in acc:
                pieces.append((first, run))
                first += run[1]
        return pieces

    def access_profile(self, spec: WorkloadSpec, phases: Optional[Sequence[str]] = None) -> PageAccessProfile:
        """Aggregate page-level access counts of a run (for the Figure-6 curves).

        The profile is placement-independent: it reflects how the workload
        spreads its traffic over its own footprint, which is what the
        bandwidth-capacity scaling curve visualises.  It is the expansion of
        :meth:`access_pieces`: a page is in the profile when some traffic
        targeted its object, even with a zero weight.
        """
        expanded = [
            (first, np.full(piece[1], piece[0]) if isinstance(piece, tuple) else piece)
            for first, piece in self.access_pieces(spec, phases)
        ]
        if not expanded:
            return PageAccessProfile(np.empty(0, dtype=np.int64), np.empty(0))
        return PageAccessProfile(
            np.concatenate([np.arange(first, first + len(counts)) for first, counts in expanded]),
            np.concatenate([counts for _, counts in expanded]),
        )

    def l2_timeline(
        self,
        spec: WorkloadSpec,
        result: RunResult,
        steps_per_phase: Optional[int] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Timeline of L2 cachelines fetched per time bucket (Figure 7).

        Returns ``(bucket_end_times, lines_per_bucket)`` covering the whole
        run; each phase's traffic follows its declared temporal profile.
        """
        times: list[np.ndarray] = []
        lines: list[np.ndarray] = []
        clock = 0.0
        for phase_spec, phase_result in zip(spec.phases, result.phases):
            steps = steps_per_phase if steps_per_phase is not None else phase_spec.timeline_steps
            shape = phase_spec.traffic_shape(steps)
            total_lines = phase_result.counters[events.L2_LINES_IN]
            bucket_times = clock + np.linspace(
                phase_result.runtime / steps, phase_result.runtime, steps
            )
            times.append(bucket_times)
            lines.append(shape * total_lines)
            clock += phase_result.runtime
        if not times:
            return np.empty(0), np.empty(0)
        return np.concatenate(times), np.concatenate(lines)

    # -- planning ------------------------------------------------------------------------

    def _plan(self, spec: WorkloadSpec, reserved_local_bytes: int) -> _RunPlan:
        """Place ``spec``'s memory and split each phase's traffic over the tiers.

        Memoized in a small LRU.  Like
        :func:`~repro.fabric.cosim.baseline_run`, each entry holds the
        workload object itself and only that very object (``is``) hits: a
        key built from ``id()`` alone could hand a new workload the plan of a
        freed one whose id CPython reused.
        """
        tier_config = self.platform.tier_config_for(spec.footprint_bytes)
        key = (id(spec), tier_config, reserved_local_bytes, self.seed, self.platform.testbed)
        entry = _plans.get(key)
        if entry is not None and entry[0] is spec:
            _plans.move_to_end(key)
            return entry[1]
        metrics().counter("engine.plans").inc()
        rng = np.random.default_rng(self.seed)
        memory, objects = self._build_memory(spec, reserved_local_bytes)
        phases = []
        for index, phase in enumerate(spec.phases):
            if index == 1:
                self._apply_post_init_changes(spec, memory, objects)
            phases.append(
                _PhasePlan(
                    traffic=self._tier_traffic(phase, memory, objects, rng),
                    stream_fraction=self._phase_stream_fraction(phase, objects),
                )
            )
        plan = _RunPlan(
            phases=tuple(phases),
            placements=self._placements(memory, objects),
            remote_capacity_ratio=memory.remote_capacity_ratio(),
        )
        _plans[key] = (spec, plan)
        _plans.move_to_end(key)
        if len(_plans) > _PLAN_MEMO_SIZE:
            _plans.popitem(last=False)
        return plan

    def _build_memory(
        self, spec: WorkloadSpec, reserved_local_bytes: int
    ) -> tuple[TieredMemory, dict[str, MemoryObject]]:
        space = AddressSpace(
            page_bytes=self.platform.testbed.page_bytes,
            line_bytes=self.platform.testbed.cacheline_bytes,
        )
        fresh = spec.fresh_objects()
        space.register_all(fresh)
        objects = {o.name: o for o in fresh}
        tier_config = self.platform.tier_config_for(spec.footprint_bytes)
        memory = TieredMemory(tier_config, space, reserved_local_bytes=reserved_local_bytes)
        late = set(spec.late_objects)
        # First-touch everything that exists before the compute phases, in
        # program allocation order.
        memory.touch_in_order([o for o in fresh if o.name not in late])
        return memory, objects

    def _apply_post_init_changes(
        self,
        spec: WorkloadSpec,
        memory: TieredMemory,
        objects: dict[str, MemoryObject],
    ) -> None:
        """Free init-only objects, then place late (dynamic) allocations."""
        for name in spec.init_only_objects:
            memory.free(objects[name])
        for name in spec.late_objects:
            memory.touch(objects[name])

    def _tier_traffic(
        self,
        phase: PhaseSpec,
        memory: TieredMemory,
        objects: dict[str, MemoryObject],
        rng: np.random.Generator,
    ) -> TierTraffic:
        """Split the phase's demand traffic over the memory tiers."""
        n_tiers = len(memory.usage)
        per_tier = np.zeros(n_tiers, dtype=np.float64)
        for name, fraction in phase.object_traffic.items():
            obj = objects[name]
            traffic = phase.dram_bytes * fraction
            if traffic <= 0 or obj.n_pages == 0:
                continue
            placement = memory.placement_view(obj)
            weights = _page_weights(obj.pattern, obj.n_pages, rng)
            for tier, weight in _tier_weights(placement, weights, n_tiers):
                per_tier[tier] += traffic * weight
        return TierTraffic(
            per_tier=tuple(per_tier),
            pooled=tuple(t.pooled for t in memory.config.tiers),
        )

    def _phase_stream_fraction(
        self, phase: PhaseSpec, objects: dict[str, MemoryObject]
    ) -> float:
        if phase.stream_fraction is not None:
            return phase.stream_fraction
        total = 0.0
        for name, fraction in phase.object_traffic.items():
            total += fraction * objects[name].pattern.stream_fraction
        return float(np.clip(total, 0.0, 1.0))

    @staticmethod
    def _placements(
        memory: TieredMemory, objects: dict[str, MemoryObject]
    ) -> tuple[ObjectPlacementResult, ...]:
        """Where each object's pages live now, in bytes per tier."""
        usage = memory.usage
        placements = []
        for obj in objects.values():
            tier_bytes = memory.object_tier_bytes(obj)
            placements.append(
                ObjectPlacementResult(
                    name=obj.name,
                    size_bytes=obj.size_bytes,
                    bytes_per_tier=tuple(tier_bytes[u.name] for u in usage),
                    placement_policy=obj.placement,
                )
            )
        return tuple(placements)

    # -- pricing -------------------------------------------------------------------------

    def _prefetch_flag(self, prefetch_enabled: Optional[bool]) -> bool:
        if prefetch_enabled is None:
            return self.platform.testbed.prefetcher.enabled
        return bool(prefetch_enabled)

    def _price_phase(
        self,
        phase: PhaseSpec,
        traffic: TierTraffic,
        stream_fraction: float,
        prefetch: bool,
        background_bw: float,
    ) -> PhaseResult:
        """Runtime and counters of one planned phase under ``background_bw``."""
        cache_stats = self.platform.cache_model.stats_from_fraction(
            demand_dram_bytes=phase.dram_bytes,
            stream_fraction=stream_fraction,
            write_fraction=phase.write_fraction,
            accuracy_hint=phase.prefetch_accuracy_hint,
            prefetch_enabled=prefetch,
        )
        line_bytes = self.platform.testbed.cacheline_bytes
        extra_bytes = cache_stats.useless_prefetch_lines * line_bytes
        total_demand = max(traffic.total, 1e-12)
        remote_share = traffic.remote / total_demand

        # Useless prefetch traffic is charged to the traffic counters but not
        # to the runtime: hardware prefetchers throttle under bandwidth
        # pressure, so the wasted fetches mostly consume otherwise-idle
        # bandwidth (SuperLU's 37% extra traffic still yields a net speedup
        # in the paper).
        perf_inputs = PhaseInputs(
            flops=phase.flops,
            local_demand_bytes=traffic.local,
            remote_demand_bytes=traffic.remote,
            local_extra_bytes=0.0,
            remote_extra_bytes=0.0,
            prefetch_coverage=cache_stats.covered_fraction,
            mlp=phase.mlp,
            background_bandwidth=background_bw,
        )
        breakdown = self.platform.performance_model.phase_time(perf_inputs)
        runtime = breakdown.runtime

        counters = CounterSet(cache_stats.counters.as_dict())
        counters.set(events.FP_ARITH_OPS, phase.flops)
        counters.set(events.ELAPSED_SECONDS, runtime)
        counters.set(events.OFFCORE_LOCAL_DRAM, traffic.local / line_bytes)
        counters.set(events.OFFCORE_REMOTE_DRAM, traffic.remote / line_bytes)
        own_remote_bw = (traffic.remote + extra_bytes * remote_share) / max(runtime, 1e-12)
        measured_bw = self.platform.link.measured_traffic(own_remote_bw + background_bw)
        counters.set(events.UPI_TRAFFIC_BYTES, measured_bw * runtime)
        utilization = self.platform.link.utilization(own_remote_bw + background_bw)
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

    def _result(
        self,
        spec: WorkloadSpec,
        phases: Sequence[PhaseResult],
        placements: tuple[ObjectPlacementResult, ...],
        remote_capacity_ratio: float,
        prefetch: bool,
        interference: InterferenceSource,
    ) -> RunResult:
        return RunResult(
            workload=spec.name,
            input_label=spec.input_label,
            scale=spec.scale,
            config_label=self.platform.label,
            phases=tuple(phases),
            placements=placements,
            remote_capacity_ratio=remote_capacity_ratio,
            footprint_bytes=spec.footprint_bytes,
            prefetch_enabled=prefetch,
            interference_loi=interference.mean_loi(),
        )
