"""Schema of the committed perf-benchmark trajectory (``BENCH_cosim.json``).

``tools/bench_perf.py`` emits one schema-versioned JSON document per run;
the copy at the repository root is the recorded perf point of the current
PR, and CI's perf-smoke job validates every freshly emitted document against
:func:`validate_bench` so the trajectory stays machine-comparable across
PRs, and diffs it against the committed baseline with :func:`compare_bench`
so a perf regression fails the job instead of silently entering the record.

Document shape (version 6)::

    {
      "schema": "repro.bench.cosim",
      "version": 6,
      "created_unix": 1754524800.0,
      "quick": false,
      "python": "3.12.3",
      "benchmarks": [
        {"name": "fabric_solver.small", "group": "fabric_solver",
         "config": {...}, "repeats": 30,
         "mean_s": ..., "min_s": ..., "throughput_per_s": ...,
         "extra": {...}},
        ...
      ],
      "telemetry_overhead": {
        "noop_span_ns": ..., "noop_counter_ns": ...,
        "events": ..., "hook_calls": ...,
        "disabled_wall_s": ..., "enabled_wall_s": ...,
        "enabled_overhead_pct": ..., "disabled_overhead_pct": ...
      }
    }

Version 2 added the cluster-scale groups (``cluster_fabric`` — epoch
stepping of the whole-cluster co-simulator — and ``solver_vectorized`` —
batched NumPy vs scalar contention solving at 100 racks).  Version 3 added
``fault_injection`` — the disabled-path cost of the fault layer (its
``extra.disabled_overhead_pct`` is the < 2% acceptance bound of
``docs/failure_model.md``) plus a seeded chaos scenario.  Version 4 added
the ``repro.parallel`` groups: ``sweep_sharded`` — a repeated-query sweep
through :class:`repro.parallel.SweepRunner` at 8 workers versus a naive
serial loop — and ``cluster_step_batched`` — the fused batched cluster
epoch path versus the per-rack reference loop at 100 racks.  Version 5
added ``trace_ingest`` — streaming :func:`repro.data.slurm.read_sacct`
throughput on a synthetic ``sacct`` dump (``extra.rows_per_s`` is the
recorded ingestion rate).  Version 6 added ``engine_profile_levels`` — the
paper's three profiling levels through the execution engine, with the
engine runs, plans and dense ``page_weights`` draws counted in ``extra``.  Older
documents remain readable (each version
must only cover its own groups), so the committed trajectory stays
comparable across schema bumps.

Every benchmark group of a document's version must be present so a missing
measurement is a schema error, not a silently shorter file.
"""

from __future__ import annotations

from typing import Mapping

BENCH_SCHEMA = "repro.bench.cosim"
BENCH_SCHEMA_VERSION = 6

#: Groups a valid document must cover, per schema version (the acceptance
#: surface of the harness).
REQUIRED_GROUPS_V1 = ("fabric_solver", "rack_cosim_step", "cluster_events")
REQUIRED_GROUPS_V2 = REQUIRED_GROUPS_V1 + ("cluster_fabric", "solver_vectorized")
REQUIRED_GROUPS_V3 = REQUIRED_GROUPS_V2 + ("fault_injection",)
REQUIRED_GROUPS_V4 = REQUIRED_GROUPS_V3 + ("sweep_sharded", "cluster_step_batched")
REQUIRED_GROUPS_V5 = REQUIRED_GROUPS_V4 + ("trace_ingest",)
REQUIRED_GROUPS = REQUIRED_GROUPS_V5 + ("engine_profile_levels",)

REQUIRED_GROUPS_BY_VERSION = {
    1: REQUIRED_GROUPS_V1,
    2: REQUIRED_GROUPS_V2,
    3: REQUIRED_GROUPS_V3,
    4: REQUIRED_GROUPS_V4,
    5: REQUIRED_GROUPS_V5,
    6: REQUIRED_GROUPS,
}

#: Schema versions :func:`validate_bench` accepts — derived from the group
#: table so a version bump can never silently drop support for the committed
#: baseline's version (hand-maintaining this tuple once did exactly that).
SUPPORTED_VERSIONS = tuple(sorted(REQUIRED_GROUPS_BY_VERSION))

_BENCH_KEYS = ("name", "group", "config", "repeats", "mean_s", "min_s", "throughput_per_s")
_OVERHEAD_KEYS = (
    "noop_span_ns",
    "noop_counter_ns",
    "events",
    "hook_calls",
    "disabled_wall_s",
    "enabled_wall_s",
    "enabled_overhead_pct",
    "disabled_overhead_pct",
)


def validate_bench(data: Mapping) -> list[str]:
    """All schema violations of one bench document (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return ["document is not a JSON object"]
    if data.get("schema") != BENCH_SCHEMA:
        errors.append(f"schema is {data.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    version = data.get("version")
    if version not in SUPPORTED_VERSIONS:
        errors.append(
            f"version is {version!r}, expected one of {SUPPORTED_VERSIONS}"
        )
    for key in ("created_unix", "python"):
        if key not in data:
            errors.append(f"missing top-level key {key!r}")
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        errors.append("benchmarks must be a non-empty list")
        benchmarks = []
    groups = set()
    for i, bench in enumerate(benchmarks):
        if not isinstance(bench, Mapping):
            errors.append(f"benchmarks[{i}] is not an object")
            continue
        for key in _BENCH_KEYS:
            if key not in bench:
                errors.append(f"benchmarks[{i}] ({bench.get('name')!r}) missing {key!r}")
        groups.add(bench.get("group"))
        for key in ("mean_s", "min_s", "throughput_per_s"):
            value = bench.get(key)
            if isinstance(value, (int, float)) and value < 0:
                errors.append(f"benchmarks[{i}].{key} is negative")
    required = REQUIRED_GROUPS_BY_VERSION.get(version, REQUIRED_GROUPS)
    for group in required:
        if group not in groups:
            errors.append(f"no benchmark covers required group {group!r}")
    overhead = data.get("telemetry_overhead")
    if not isinstance(overhead, Mapping):
        errors.append("missing telemetry_overhead object")
    else:
        for key in _OVERHEAD_KEYS:
            if key not in overhead:
                errors.append(f"telemetry_overhead missing {key!r}")
    return errors


#: Default regression threshold of :func:`compare_bench`: a benchmark must be
#: at least 50% slower than the baseline before it counts as a regression.
#: Generous on purpose — CI runners are noisy, and the committed baseline may
#: have been recorded on different hardware; the comparator is a backstop
#: against order-of-magnitude slips, not a microbenchmark gate.
DEFAULT_REGRESSION_THRESHOLD = 0.5


def compare_bench(
    baseline: Mapping,
    current: Mapping,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """Diff two bench documents: ``(regressions, skipped)``.

    Benchmarks are matched by ``name``; a pair is only *comparable* when both
    sides ran the identical ``config`` (quick and full runs share configs for
    the groups meant to be compared across them, and differ where wall times
    would be incommensurate).  A comparable benchmark regresses when its
    best-of time grew by more than ``threshold`` (relative): ``min_s`` is
    used rather than ``mean_s`` because it is the noise-robust statistic on
    shared CI runners.  Non-comparable or one-sided benchmarks are reported
    in ``skipped`` so a silently shrinking comparison surface is visible.

    A whole benchmark *group* absent from the baseline — the normal state of
    affairs right after a schema bump, when the committed document predates
    the group — is collapsed into one ``group '...': not in baseline`` skip
    instead of a per-benchmark message per row, and is never a regression.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    base_by_name = {
        b.get("name"): b
        for b in baseline.get("benchmarks", ())
        if isinstance(b, Mapping)
    }
    base_groups = {
        b.get("group")
        for b in baseline.get("benchmarks", ())
        if isinstance(b, Mapping)
    }
    regressions: list[str] = []
    skipped: list[str] = []
    missing_groups: dict = {}
    seen = set()
    for bench in current.get("benchmarks", ()):
        if not isinstance(bench, Mapping):
            continue
        name = bench.get("name")
        seen.add(name)
        base = base_by_name.get(name)
        if base is None:
            group = bench.get("group")
            if group not in base_groups:
                missing_groups[group] = missing_groups.get(group, 0) + 1
            else:
                skipped.append(f"{name}: not in baseline")
            continue
        if base.get("config") != bench.get("config"):
            skipped.append(f"{name}: config differs from baseline")
            continue
        base_min = base.get("min_s")
        cur_min = bench.get("min_s")
        if not isinstance(base_min, (int, float)) or not isinstance(
            cur_min, (int, float)
        ) or base_min <= 0:
            skipped.append(f"{name}: missing or unusable min_s")
            continue
        ratio = cur_min / base_min
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{name}: {cur_min:.6f}s vs baseline {base_min:.6f}s "
                f"({ratio:.2f}x, threshold {1.0 + threshold:.2f}x)"
            )
    for group, count in missing_groups.items():
        skipped.append(
            f"group {group!r}: not in baseline "
            f"({count} benchmark{'s' if count != 1 else ''}; "
            "baseline predates this group)"
        )
    for name in base_by_name:
        if name not in seen:
            skipped.append(f"{name}: not in current run")
    return regressions, skipped
