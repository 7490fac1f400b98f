"""Outside-in layer timing: monkeypatched timers around each layer's public calls.

A traced run installs a wrapper around every public function listed in
:func:`layer_targets`.  Each wrapper records, per layer, the number of calls
entering the layer from outside it and the layer's *self* time: the wall time
spent inside the layer minus the time spent in nested wrapped calls of other
layers.  The timed study call itself runs under :data:`ROOT`, so its self time
is the time no wrapped layer accounts for, and the self times of all layers
(root included) sum to the traced wall time.

Nothing under ``src/`` knows about these wrappers; :func:`install` patches the
classes and module globals of the imported ``repro`` package and
:func:`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import FunctionType, ModuleType

#: Pseudo-layer the timed study call runs under; its self time is the time no
#: wrapped layer accounts for.
ROOT = "unattributed"

#: Attribute every installed wrapper carries (used to prove removal).
MARKER = "__perfbench_layer__"


class LayerTracer:
    """Per-layer call counts and self times from nested enter/exit pairs.

    ``clock`` is injectable so tests can drive the arithmetic with a fake.
    A call that enters a layer directly from the same layer (``resolve`` →
    ``resolve_detailed``) is part of the outer call: it adds no call count
    and its time stays in the layer's self time, so it is not timed at all.

    Counters live in one-element lists that the wrappers capture, which keeps
    a wrapped call to well under a microsecond of overhead; :meth:`reset`
    zeroes them in place.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list] = []
        self._calls: dict[str, list] = {}
        self._self_s: dict[str, list] = {}
        self._targets: dict[str, list] = {}
        #: Placement-style hit counts: calls whose result was not None.
        self.hits: dict[str, int] = {}
        #: Distinct first arguments seen per layer (perf-model inputs).
        self.distinct: dict[str, set] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (the stack must be empty)."""
        if self._stack:
            raise RuntimeError("cannot reset inside a traced call")
        for table in (self._calls, self._self_s, self._targets):
            for cell in table.values():
                cell[0] = 0
        self.hits.clear()
        self.distinct.clear()

    @property
    def calls(self) -> dict[str, int]:
        """Calls entering each layer from outside it."""
        return {name: cell[0] for name, cell in self._calls.items()}

    @property
    def self_s(self) -> dict[str, float]:
        """Self seconds per layer."""
        return {name: cell[0] for name, cell in self._self_s.items()}

    @property
    def target_calls(self) -> dict[str, int]:
        """Raw call count per wrapped target (``Class.method``), nested or not."""
        return {name: cell[0] for name, cell in self._targets.items()}

    def cells(self, layer: str, target: str) -> tuple[list, list, list]:
        """The (target calls, layer calls, layer self seconds) counters."""
        return (
            self._targets.setdefault(target, [0]),
            self._calls.setdefault(layer, [0]),
            self._self_s.setdefault(layer, [0.0]),
        )

    def enter(self, layer: str, target: str) -> bool:
        """Open a call; returns False (and times nothing) when it is nested
        directly in the same layer."""
        n_target, n_layer, _ = self.cells(layer, target)
        n_target[0] += 1
        if self._stack and self._stack[-1][0] == layer:
            return False
        n_layer[0] += 1
        self._stack.append([layer, self.clock(), 0.0])
        return True

    def exit(self) -> float:
        """Close the innermost call; returns its inclusive seconds."""
        layer, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self._self_s[layer][0] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def run_root(self, fn):
        """Call ``fn()`` under :data:`ROOT`; returns (result, traced wall seconds)."""
        if self._stack:
            raise RuntimeError("run_root needs an empty call stack")
        self.enter(ROOT, ROOT)
        try:
            result = fn()
        finally:
            wall = self.exit()
        return result, wall


def _wrap_function(tracer: LayerTracer, layer: str, target: str, func, hook=None):
    if inspect.isgeneratorfunction(func):
        enter, exit_ = tracer.enter, tracer.exit

        # A generator's work happens in next(), not in the call that makes it.
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            iterator = func(*args, **kwargs)
            while True:
                timed = enter(layer, target)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if timed:
                        exit_()
                yield item

        setattr(wrapper, MARKER, layer)
        return wrapper

    # The hot path: LayerTracer.enter/exit inlined over captured locals.
    clock, stack = tracer.clock, tracer._stack
    n_target, n_layer, self_s = tracer.cells(layer, target)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        n_target[0] += 1
        if stack and stack[-1][0] == layer:
            return func(*args, **kwargs)
        n_layer[0] += 1
        frame = [layer, clock(), 0.0]
        stack.append(frame)
        try:
            return func(*args, **kwargs)
        finally:
            stack.pop()
            elapsed = clock() - frame[1]
            self_s[0] += elapsed - frame[2]
            if stack:
                stack[-1][2] += elapsed

    if hook is not None:
        timed = wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            hook(tracer, layer, args, result)
            return result

    setattr(wrapper, MARKER, layer)
    return wrapper


def _count_hit(tracer: LayerTracer, layer: str, args, result) -> None:
    if result is not None:
        tracer.hits[layer] = tracer.hits.get(layer, 0) + 1


def _count_distinct(tracer: LayerTracer, layer: str, args, result) -> None:
    tracer.distinct.setdefault(layer, set()).add(args[1])


#: Per-layer result hooks (everything else gets the plain wrapper).
HOOKS = {
    "scheduler.placement": _count_hit,
    "sim.perfmodel": _count_distinct,
}


def _public(cls) -> list:
    return [
        (cls, name)
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and isinstance(value, (FunctionType, classmethod, staticmethod))
    ]


def layer_targets() -> dict[str, list]:
    """Layer name -> [(class or module, attribute name)] of the calls it wraps."""
    from repro.cache import hierarchy, prefetcher
    from repro.data import slurm
    from repro.fabric import cluster, cosim, pool, topology
    from repro.interconnect import link, queueing
    from repro.memory import tiered
    from repro.profiler import level1, level2, level3, profiler
    from repro.scheduler import policies, progress, simulator
    from repro.sim import engine, perfmodel
    from repro.trace import access, patterns
    from repro.workloads import registry

    rack, clus = cosim.RackCoSimulator, cluster.ClusterCoSimulator
    multi = profiler.MultiLevelProfiler
    pattern_classes = [
        value
        for value in vars(patterns).values()
        if isinstance(value, type)
        and value is not patterns.AccessPattern
        and "page_weights" in vars(value)
    ]
    return {
        "scheduler.placement": [
            (cls, "choose_rack") for cls in policies.POLICIES.values()
        ],
        "scheduler.loop": [(simulator.ClusterSimulator, "run")],
        "scheduler.progress": [
            (cls, name)
            for cls in (progress.StaticCurveProgress, progress.FabricCoupledProgress)
            for name in ("rates", "horizon", "advance", "job_started", "job_finished")
        ],
        "sim.perfmodel": [(perfmodel.PerformanceModel, "phase_time")],
        "interconnect.share": [(link.RemoteLink, "share")]
        + [
            (cls, "waiting_time")
            for cls in (
                queueing.MM1QueueingModel,
                queueing.MD1QueueingModel,
                queueing.LinearQueueingModel,
            )
        ],
        "fabric.rates": [
            (rack, "progress_rates"),
            (rack, "horizon"),
            (clus, "progress_rates"),
            (clus, "horizon"),
        ],
        "fabric.step": [(clus, "step"), (rack, "step"), (rack, "step_frozen")],
        "fabric.solver": [
            (topology.FabricTopology, "resolve"),
            (topology.FabricTopology, "resolve_detailed"),
            (cluster.ClusterFabric, "resolve_all"),
            (cluster.ClusterFabric, "resolve_racks"),
        ],
        "fabric.pool": [
            (pool.MemoryPool, name)
            for name in ("request", "release", "shrink", "revoke", "lose_capacity")
        ],
        "fabric.faults": [(rack, "apply_fault")],
        "fabric.admit": [
            (clus, "admit"),
            (clus, "withdraw"),
            (rack, "admit"),
            (rack, "withdraw"),
        ],
        "data.ingest": [(slurm, "read_sacct")],
        "profiler.level1": [(multi, "level1"), (level1.Level1Profiler, "profile")],
        "profiler.level2": [
            (multi, "level2"),
            (multi, "level2_sweep"),
            (level2.Level2Profiler, "profile"),
            (level2.Level2Profiler, "profile_capacity_ratios"),
        ],
        "profiler.level3": [
            (multi, "level3"),
            (multi, "level3_sensitivity"),
        ]
        + _public(level3.Level3Profiler),
        "trace": [
            (cls, name)
            for cls in pattern_classes
            for name in ("sample_offsets", "page_weights")
        ]
        + [
            (access.PageAccessProfile, "from_batch"),
            (access.PageAccessProfile, "merged"),
        ],
        "memory.tiered": _public(tiered.TieredMemory),
        "cache": _public(hierarchy.CacheHierarchyModel)
        + [(prefetcher, "analyze_stream"), (prefetcher, "analyze_fraction")],
        "sim.engine": _public(engine.ExecutionEngine),
        "workloads.build": [
            (registry, "build_workload"),
            (registry, "build_all"),
        ]
        + [(cls, "build") for cls in registry.WORKLOAD_MODELS.values()],
    }


def lap_targets() -> list:
    """[(class, attribute name)] whose every call marks a lap of an untraced call.

    Each is called once per simulation step of its flow (a scheduler event,
    a cluster step, an engine run), so the laps split a call into a few
    hundred to a few thousand deterministic pieces.
    """
    from repro.fabric import cluster
    from repro.scheduler import progress
    from repro.sim import engine

    return [
        (progress.StaticCurveProgress, "rates"),
        (progress.FabricCoupledProgress, "rates"),
        (cluster.ClusterCoSimulator, "step"),
        (engine.ExecutionEngine, "run"),
    ]


def _lap_wrapper(func, mark, clock):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        mark(clock())
        return func(*args, **kwargs)

    setattr(wrapper, MARKER, "lap")
    return wrapper


def install_laps(marks: list, clock=time.perf_counter) -> list:
    """Append ``clock()`` to ``marks`` on every call of a :func:`lap_targets` entry.

    A lap mark costs well under a microsecond, against milliseconds of work
    per lap.  Returns the patches for :func:`uninstall`.
    """
    patches: list[tuple[object, str, object]] = []
    for owner, name in lap_targets():
        raw = vars(owner)[name]
        patches.append((owner, name, raw))
        setattr(owner, name, _lap_wrapper(raw, marks.append, clock))
    return patches


def _repro_modules() -> list[ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _noop_span(name: str, **attrs):
    from repro.telemetry.tracing import NOOP_SPAN

    return NOOP_SPAN


def install(tracer: LayerTracer) -> list:
    """Wrap every layer target and silence span recording.

    Traced runs turn the telemetry registry on for its existing counters
    (``scheduler.events``, epoch skips, solver iterations), but span records
    would add their own cost inside the layers, so every ``trace_span``
    binding in the ``repro`` package is pointed at the shared no-op span for
    the duration of the run.  Returns the patches for :func:`uninstall`.
    """
    from repro import telemetry

    patches: list[tuple[object, str, object]] = []

    def patch(owner, name: str, new) -> None:
        patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    modules = _repro_modules()
    try:
        for layer, targets in layer_targets().items():
            hook = HOOKS.get(layer)
            for owner, name in targets:
                raw = vars(owner)[name]
                if isinstance(owner, ModuleType):
                    label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
                    wrapper = _wrap_function(tracer, layer, label, raw, hook)
                    # ``from x import f`` copies the binding: patch every copy.
                    for module in modules:
                        if vars(module).get(name) is raw:
                            patch(module, name, wrapper)
                    continue
                label = f"{owner.__name__}.{name}"
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapper = type(raw)(
                        _wrap_function(tracer, layer, label, raw.__func__, hook)
                    )
                    setattr(wrapper, MARKER, layer)
                else:
                    wrapper = _wrap_function(tracer, layer, label, raw, hook)
                patch(owner, name, wrapper)
        for module in modules:
            if vars(module).get("trace_span") is telemetry.trace_span:
                patch(module, "trace_span", _noop_span)
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list) -> None:
    """Restore every original :func:`install` replaced (newest first)."""
    while patches:
        owner, name, original = patches.pop()
        setattr(owner, name, original)


def leftover_wrappers() -> list[str]:
    """Names of wrappers or span patches still installed anywhere in ``repro``."""
    left = []
    for module in _repro_modules():
        for name, value in vars(module).items():
            if getattr(value, MARKER, None) is not None or value is _noop_span:
                left.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, MARKER, None) is not None:
                        left.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(left))
