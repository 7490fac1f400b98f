"""Command-line interface: ``repro-dmem``.

Sub-commands map directly onto the paper's experiments::

    repro-dmem table 1                 # Table 1 (memory cost of Top-10 systems)
    repro-dmem table 2                 # Table 2 (evaluated workloads)
    repro-dmem profile XSBench         # three-level profile of one workload
    repro-dmem figure 8                # regenerate one figure's data
    repro-dmem bfs-case-study          # Section 7.1
    repro-dmem scheduling --runs 20    # Section 7.2 (reduced run count)
    repro-dmem scheduling --coupled    # rack-scale static vs fabric-coupled
    repro-dmem scheduling --trace sacct.txt --coupled
                                       # a Slurm trace, static vs fabric-coupled
    repro-dmem fabric --tenants 6      # rack co-simulation (Section 7.2 extension)
    repro-dmem fabric --inject port-kill@5.0:port=0,duration=2.0
                                       # chaos run: kill a pool port for 2 s
    repro-dmem fabric --overcommit     # elastic leases (shrink-on-admit)

Reference documentation for every subcommand lives in ``docs/cli.md``; the
fault taxonomy behind ``--inject`` is documented in ``docs/failure_model.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

import numpy as np

from . import analysis, telemetry
from .analysis.figures import fabric_scenario
from .analysis.tables import format_table
from .casestudies.bfs_placement import BFSPlacementCaseStudy
from .casestudies.scheduling import CoupledSchedulingStudy, SchedulingCaseStudy
from .config.errors import ReproError
from .config.units import gb_per_s, gib
from .profiler.profiler import MultiLevelProfiler
from .telemetry.report import render_report
from .workloads.registry import build_workload, workload_names


# ---------------------------------------------------------------------------
# Argument validators: numeric flags fail with an actionable one-line message
# (argparse renders ArgumentTypeError as "argument --flag: <message>"),
# matching the repro.data.slurm error style — never a bare traceback.
# ---------------------------------------------------------------------------


def _number(text: str, kind: type, what: str) -> Any:
    try:
        value = kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not {what} (expected e.g. {'4' if kind is int else '4.0'})"
        ) from None
    if kind is float and not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def positive_int(text: str) -> int:
    """Argparse type: an integer >= 1."""
    value = _number(text, int, "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """Argparse type: an integer >= 0."""
    value = _number(text, int, "an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """Argparse type: a finite number > 0."""
    value = _number(text, float, "a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def nonnegative_float(text: str) -> float:
    """Argparse type: a finite number >= 0."""
    value = _number(text, float, "a number")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def fraction(text: str) -> float:
    """Argparse type: a finite number in (0, 1]."""
    value = _number(text, float, "a number")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def closed_fraction(text: str) -> float:
    """Argparse type: a finite number in [0, 1]."""
    value = _number(text, float, "a number")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def trace_window(text: str) -> tuple:
    """Argparse type for ``--trace-window START:END``.

    START/END are seconds relative to the first replayed job's submit time;
    either side may be empty for an open bound (``3600:`` = everything after
    the first hour).
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not START:END (seconds relative to the trace start; "
            "either side may be empty)"
        )
    lo = nonnegative_float(head) if head.strip() else None
    hi = nonnegative_float(tail) if tail.strip() else None
    if lo is not None and hi is not None and hi < lo:
        raise argparse.ArgumentTypeError(f"window end {hi} is before start {lo}")
    return (lo, hi)


def _to_jsonable(value: Any) -> Any:
    """Convert NumPy containers to plain Python for JSON output."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


def _emit(data: Any, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_to_jsonable(data), indent=2))
    else:
        print(_pretty(data))


def _pretty(data: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        lines = []
        for key, value in data.items():
            if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
        return "\n".join(lines)
    if isinstance(data, list):
        return "\n".join(f"{pad}- {_scalar(item) if not isinstance(item, dict) else ''}"
                         + ("\n" + _pretty(item, indent + 1) if isinstance(item, dict) else "")
                         for item in data)
    return f"{pad}{_scalar(data)}"


def _is_scalar_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(
        not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value
    )


def _scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, np.ndarray):
        return np.array2string(value, precision=3, threshold=8)
    return str(value)


def cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        rows = analysis.table1_memory_cost()
    elif args.number == 2:
        rows = analysis.table2_workloads()
    else:
        print(f"unknown table {args.number}; the paper has tables 1 and 2", file=sys.stderr)
        return 2
    if args.json:
        _emit(rows, True)
    else:
        print(format_table(rows))
    return 0


FIGURE_BUILDERS = {
    1: lambda args: analysis.figure1_memory_evolution(),
    5: lambda args: analysis.figure5_roofline(seed=args.seed),
    6: lambda args: analysis.figure6_scaling_curves(seed=args.seed),
    7: lambda args: analysis.figure7_prefetch_timeline(seed=args.seed),
    8: lambda args: analysis.figure8_prefetch_metrics(seed=args.seed),
    9: lambda args: analysis.figure9_tier_access(seed=args.seed),
    10: lambda args: analysis.figure10_sensitivity(seed=args.seed),
    11: lambda args: analysis.figure11_lbench(seed=args.seed),
    12: lambda args: analysis.figure12_bfs_case_study(seed=args.seed),
    13: lambda args: analysis.figure13_scheduling(seed=args.seed, n_runs=args.runs),
}


def cmd_figure(args: argparse.Namespace) -> int:
    builder = FIGURE_BUILDERS.get(args.number)
    if builder is None:
        print(
            f"unknown figure {args.number}; available: {sorted(FIGURE_BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    _emit(builder(args), args.json)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    spec = build_workload(args.workload, args.scale)
    profiler = MultiLevelProfiler(seed=args.seed)
    level1 = profiler.level1(spec)
    output: dict[str, Any] = {
        "workload": spec.name,
        "input": spec.input_label,
        "footprint_gb": spec.footprint_bytes / 1e9,
        "level1": {
            "phases": [
                {
                    "phase": p.phase,
                    "arithmetic_intensity": p.arithmetic_intensity,
                    "gflops": p.achieved_gflops,
                    "bandwidth_gbs": p.achieved_bandwidth_gbs,
                    "runtime_s": p.runtime,
                }
                for p in level1.phases
            ],
            "prefetch": {
                "accuracy": level1.prefetch.accuracy,
                "coverage": level1.prefetch.coverage,
                "excess_traffic": level1.prefetch.excess_traffic,
                "performance_gain": level1.prefetch.performance_gain,
            },
        },
    }
    if args.levels >= 2:
        level2 = profiler.level2(spec, local_fraction=args.local_fraction)
        output["level2"] = {
            "config": level2.config_label,
            "remote_capacity_ratio": level2.remote_capacity_ratio,
            "remote_bandwidth_ratio": level2.remote_bandwidth_ratio,
            "phases": [
                {
                    "phase": p.phase,
                    "remote_access_ratio": p.remote_access_ratio,
                    "headroom": p.optimization_headroom,
                }
                for p in level2.phases
            ],
        }
    if args.levels >= 3:
        level3 = profiler.level3(spec, local_fraction=args.local_fraction)
        output["level3"] = {
            "interference_coefficient": level3.interference_coefficient,
            "sensitivity": {
                "loi": list(level3.sensitivity.loi_levels),
                "relative_performance": list(level3.sensitivity.relative_performance),
            },
        }
    _emit(output, args.json)
    return 0


def cmd_bfs_case_study(args: argparse.Namespace) -> int:
    result = BFSPlacementCaseStudy(scale=args.scale, seed=args.seed).run(
        with_sensitivity=not args.no_sensitivity
    )
    _emit({"rows": result.summary_rows()}, args.json)
    return 0


def _fault_schedule_from(args: argparse.Namespace) -> Any:
    """Build a :class:`FaultSchedule` from repeated ``--inject`` specs (or None).

    Exits with status 2 (via ``SystemExit``) on a malformed spec so callers
    get an argparse-style diagnostic rather than a traceback.
    """
    specs = getattr(args, "inject", None)
    if not specs:
        return None
    from .config.errors import FabricError
    from .fabric.faults import FaultSchedule, parse_fault_spec

    try:
        return FaultSchedule(tuple(parse_fault_spec(spec) for spec in specs))
    except FabricError as exc:
        print(f"bad --inject spec: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_scheduling(args: argparse.Namespace) -> int:
    schedule = _fault_schedule_from(args)
    if (schedule is not None or args.overcommit) and not args.coupled:
        print("--inject/--overcommit require --coupled", file=sys.stderr)
        return 2
    if args.trace is None and not args.coupled:
        study = SchedulingCaseStudy(n_runs=args.runs, seed=args.seed)
        result = study.run(jobs=args.jobs)
        _emit({r.workload: r.summary() for r in result.results}, args.json)
        return 0
    study = CoupledSchedulingStudy(
        n_racks=args.racks,
        nodes_per_rack=args.nodes_per_rack,
        pool_capacity_gb=args.pool_gb,
        local_fraction=args.trace_local_fraction if args.trace else 0.5,
        policy=args.policy,
        ports_per_rack=args.ports,
        epoch_seconds=args.epoch_seconds,
        scale=args.scale,
        seed=args.seed,
        cluster_pool_gb=args.cluster_pool_gb,
        fault_schedule=schedule,
        overcommit=args.overcommit,
        drain_bytes_per_s=gb_per_s(args.drain_gbs),
    )
    if args.trace is None:
        names = args.workloads or ()
        specs = [build_workload(name, args.scale) for name in names] or None
        result = study.run(
            specs=specs,
            copies=args.copies,
            stagger=args.stagger,
            with_sensitivity=args.with_sensitivity,
        )
    else:
        try:
            result = study.replay(
                args.trace, limit=args.trace_limit, window=args.trace_window, coupled=args.coupled
            )
        except OSError as exc:
            print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"trace replay failed: {exc}", file=sys.stderr)
            return 2
    _emit(result.summary(), args.json)
    return 0


def cmd_fabric(args: argparse.Namespace) -> int:
    """Rack-scale co-simulation: tenants sharing one memory pool (fabric extension)."""
    scenario = fabric_scenario(
        workload=args.workload,
        n_tenants=args.tenants,
        scale=args.scale,
        local_fraction=args.local_fraction,
        stagger=args.stagger,
        pool_capacity_bytes=int(gib(args.pool_gb)) if args.pool_gb is not None else None,
        n_ports=args.ports,
        port_capacity_scale=args.port_capacity_scale,
        epoch_seconds=args.epoch_seconds,
        n_racks=args.cluster or None,
        cluster_pool_bytes=int(gib(args.cluster_pool_gb)) if args.cluster_pool_gb else None,
        uplink_capacity_scale=args.uplink_scale,
        overcommit=args.overcommit,
        faults=_fault_schedule_from(args),
        drain_bytes_per_s=gb_per_s(args.drain_gbs),
        seed=args.seed,
    )
    output = scenario["summary"]
    if args.timeline:
        output["timeline"] = scenario["timeline"]
    _emit(output, args.json)
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Render a telemetry dump: metrics catalog plus top spans."""
    if args.action != "report":
        print(f"unknown telemetry action {args.action!r}", file=sys.stderr)
        return 2
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            dump = telemetry.read_jsonl(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry dump {args.file!r}: {exc}", file=sys.stderr)
        return 2
    print(render_report(dump.registry, dump.tracer, top=args.top))
    return 0


def _add_fault_args(parser: argparse.ArgumentParser, target: str) -> None:
    """Attach the shared fault-injection / elasticity flags to a subcommand."""
    parser.add_argument(
        "--inject",
        action="append",
        metavar="SPEC",
        default=None,
        help="inject a fault into " + target + "; SPEC is KIND@TIME[:key=value,...] "
        "(e.g. 'port-kill@5.0:port=0,duration=2.5'); repeatable; see "
        "docs/failure_model.md for the taxonomy",
    )
    parser.add_argument(
        "--overcommit",
        action="store_true",
        help="make the memory pool(s) elastic: new leases may shrink running "
        "tenants down to their floor, charging the modeled page-give-back "
        "migration cost against their progress",
    )
    parser.add_argument(
        "--drain-gbs",
        type=positive_float,
        default=4.0,
        help="page-give-back drain rate in GB/s used to price migration "
        "stalls after a shrink or revocation (default 4.0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dmem",
        description="Reproduction toolkit for 'A Quantitative Approach for Adopting "
        "Disaggregated Memory in HPC Systems' (SC 2023).",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="worker processes for parameter sweeps (commands that sweep "
        "shard their runs over N processes; results are bit-identical to "
        "a serial run)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record metrics and trace spans during the command and print a "
        "telemetry report afterwards",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the recorded metrics + spans to PATH as JSONL "
        "(implies --telemetry; read it back with 'telemetry report PATH')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate a table")
    p_table.add_argument("number", type=int, choices=(1, 2))
    p_table.set_defaults(func=cmd_table)

    p_fig = sub.add_parser("figure", help="regenerate a figure's data")
    p_fig.add_argument("number", type=int)
    p_fig.add_argument("--runs", type=positive_int, default=100, help="runs for figure 13")
    p_fig.set_defaults(func=cmd_figure)

    p_prof = sub.add_parser("profile", help="three-level profile of one workload")
    p_prof.add_argument("workload", choices=list(workload_names()) + ["XS"])
    p_prof.add_argument("--scale", type=positive_float, default=1.0)
    p_prof.add_argument("--levels", type=int, default=3, choices=(1, 2, 3))
    p_prof.add_argument("--local-fraction", type=closed_fraction, default=0.5)
    p_prof.set_defaults(func=cmd_profile)

    p_bfs = sub.add_parser("bfs-case-study", help="Section 7.1 case study")
    p_bfs.add_argument("--scale", type=positive_float, default=1.0)
    p_bfs.add_argument("--no-sensitivity", action="store_true")
    p_bfs.set_defaults(func=cmd_bfs_case_study)

    p_sched = sub.add_parser("scheduling", help="Section 7.2 case study")
    p_sched.add_argument("--runs", type=positive_int, default=100)
    p_sched.add_argument(
        "--coupled",
        action="store_true",
        help="rack-scale comparison: static slowdown_at(LoI) pricing vs "
        "fabric-coupled progress (one ClusterCoSimulator, its racks in "
        "lockstep, stepped between events)",
    )
    p_sched.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="workloads in the coupled job stream (default: all six)",
    )
    p_sched.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="replay a Slurm 'sacct -P' dump through the cluster simulator "
        "instead of the synthetic Section 7.2 workloads; with --coupled the "
        "fabric leg runs too (see docs/data.md)",
    )
    p_sched.add_argument(
        "--trace-limit",
        type=positive_int,
        default=None,
        metavar="N",
        help="replay only the first N trace jobs",
    )
    p_sched.add_argument(
        "--trace-window",
        type=trace_window,
        default=None,
        metavar="START:END",
        help="replay only jobs submitted between START and END seconds after "
        "the trace starts (either side may be empty for an open bound)",
    )
    p_sched.add_argument(
        "--trace-local-fraction",
        type=closed_fraction,
        default=0.5,
        help="fraction of each trace job's footprint served node-locally; "
        "the rest draws on the rack pool, and the coupled fabric prices "
        "the job's traffic at the same split",
    )
    p_sched.add_argument("--copies", type=positive_int, default=2, help="jobs per workload")
    p_sched.add_argument("--racks", type=positive_int, default=2, help="racks in the cluster")
    p_sched.add_argument("--nodes-per-rack", type=positive_int, default=2)
    p_sched.add_argument(
        "--pool-gb", type=positive_float, default=2048.0, help="pool capacity per rack, GB"
    )
    p_sched.add_argument(
        "--policy",
        default="least-loaded",
        help="placement policy for the coupled comparison",
    )
    p_sched.add_argument("--ports", type=positive_int, default=1, help="pool ports per rack")
    p_sched.add_argument(
        "--scale", type=positive_float, default=1.0, help="workload input scale"
    )
    p_sched.add_argument(
        "--stagger", type=nonnegative_float, default=0.0, help="seconds between job arrivals"
    )
    p_sched.add_argument(
        "--epoch-seconds", type=positive_float, default=None, help="fabric co-simulation step"
    )
    p_sched.add_argument(
        "--with-sensitivity",
        action="store_true",
        help="measure Level-3 sensitivity curves so the static model prices "
        "co-location with the paper's full submission-time hints",
    )
    p_sched.add_argument(
        "--cluster-pool-gb",
        type=nonnegative_float,
        default=0.0,
        help="cluster-level spill pool for the coupled fabric, decimal GB "
        "like every scheduler-layer capacity (0 disables spilling)",
    )
    _add_fault_args(p_sched, "the coupled fabric (requires --coupled)")
    p_sched.set_defaults(func=cmd_scheduling)

    p_fabric = sub.add_parser(
        "fabric", help="rack-scale shared memory-pool co-simulation"
    )
    p_fabric.add_argument("--tenants", type=positive_int, default=4, help="co-located tenants")
    p_fabric.add_argument("--workload", default="Hypre", help="tenant workload")
    p_fabric.add_argument(
        "--scale", type=positive_float, default=1.0, help="input scale factor"
    )
    p_fabric.add_argument(
        "--local-fraction",
        type=fraction,
        default=0.5,
        help="fraction of each tenant's footprint served locally, in (0, 1]",
    )
    p_fabric.add_argument(
        "--pool-gb",
        type=positive_float,
        default=None,
        help="pool capacity per rack in GiB — the fabric layer counts raw "
        "bytes (default: exactly the rack's leases)",
    )
    p_fabric.add_argument("--ports", type=positive_int, default=1, help="shared pool ports")
    p_fabric.add_argument(
        "--port-capacity-scale",
        type=positive_float,
        default=1.0,
        help="pool-port capacity as a multiple of one node link (>= 1)",
    )
    p_fabric.add_argument(
        "--stagger", type=nonnegative_float, default=0.0, help="seconds between tenant arrivals"
    )
    p_fabric.add_argument(
        "--epoch-seconds", type=positive_float, default=None, help="co-simulation step"
    )
    p_fabric.add_argument(
        "--timeline", action="store_true", help="include the pool telemetry timeline"
    )
    p_fabric.add_argument(
        "--cluster",
        type=nonnegative_int,
        default=0,  # 0 = single-rack mode
        metavar="N_RACKS",
        help="co-simulate N_RACKS racks (each with --tenants tenants) through "
        "the cluster fabric instead of a single rack (0, the default)",
    )
    p_fabric.add_argument(
        "--cluster-pool-gb",
        type=nonnegative_float,
        default=0.0,
        help="cluster-level spill pool capacity in GiB (0 disables spilling; "
        "only with --cluster)",
    )
    p_fabric.add_argument(
        "--uplink-scale",
        type=positive_float,
        default=4.0,
        help="rack uplink capacity as a multiple of one node link "
        "(only with --cluster)",
    )
    _add_fault_args(p_fabric, "the rack (or every rack with --cluster)")
    p_fabric.set_defaults(func=cmd_fabric)

    p_tel = sub.add_parser(
        "telemetry", help="inspect recorded telemetry (metrics + trace spans)"
    )
    p_tel.add_argument("action", choices=("report",), help="what to do with the dump")
    p_tel.add_argument("file", help="JSONL dump written by --trace-out")
    p_tel.add_argument(
        "--top", type=positive_int, default=10, help="span names to list (by total time)"
    )
    p_tel.set_defaults(func=cmd_telemetry)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    ``--telemetry`` / ``--trace-out`` bracket the whole command: recording is
    enabled (on a fresh registry/tracer) before the subcommand runs, the
    JSONL dump is written after it returns, and the in-process report is
    printed when no dump path was given.  Telemetry is switched off again
    before returning so repeated in-process calls (doctests, tests) stay
    independent.  A library error (:class:`~repro.config.errors.ReproError`)
    from any subcommand is a usage error: one ``error:`` line on stderr and
    exit status 2, never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    record = bool(getattr(args, "telemetry", False) or getattr(args, "trace_out", None))
    if record:
        telemetry.enable(reset=True)
    try:
        status = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    finally:
        if record:
            telemetry.disable()
    if record and status == 0:
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                telemetry.write_jsonl(fh)
            print(f"telemetry written to {args.trace_out}", file=sys.stderr)
        else:
            print(render_report(telemetry.registry(), telemetry.tracer()))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
