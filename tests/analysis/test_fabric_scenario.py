"""One fabric scenario behind ``repro-dmem fabric`` and both fabric figures.

The differential grid holds the CLI and the two figure functions to the
code they replaced (``analysis/oracles.py``): the same ``--json`` output and
equal figure dicts on every key the old code printed.  A standalone rack is
now a 1-rack cluster, so its output gained the cluster's keys, and a
finished tenant's lease reads ``granted`` where the rack printed
``released``; a cluster's gained the rack's.  The grid leaves out the four
places where the old code had drifted apart; the tests after it pin each
one.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from analysis import oracles
from repro.analysis import figure_blast_radius, figure_fabric_pool_timeline
from repro.cli import _to_jsonable, build_parser, main
from repro.fabric import uniform_tenants
from repro.workloads import build_workload

#: ``fabric`` argument lists: a standalone rack and clusters of 1-3 racks,
#: 1-4 tenants of five workloads, explicit and default (rigid or elastic)
#: pools, ports, port scales, staggers, epochs, cluster pools, uplink scales
#: and every fault kind but capacity loss on a cluster's default pool.
CLI_GRID = [
    ["--tenants", "1"],
    ["--tenants", "3", "--workload", "XSBench", "--ports", "2",
     "--port-capacity-scale", "1.5", "--stagger", "4", "--epoch-seconds", "0.9",
     "--timeline"],
    ["--tenants", "4", "--workload", "BFS", "--pool-gb", "2.5", "--timeline"],
    ["--tenants", "3", "--pool-gb", "3", "--overcommit", "--local-fraction", "0.25"],
    ["--tenants", "2", "--workload", "XSBench", "--overcommit", "--timeline"],
    ["--tenants", "2", "--workload", "SuperLU", "--scale", "0.5", "--seed", "3",
     "--inject", "port-kill@5.0:port=0,duration=2.0"],
    ["--tenants", "3", "--workload", "SuperLU", "--ports", "2", "--drain-gbs", "2",
     "--inject", "port-degrade@3:port=1,scale=0.5,duration=4",
     "--inject", "lease-revoke@6:tenant=SuperLU-1"],
    ["--tenants", "2", "--workload", "XSBench", "--pool-gb", "3", "--overcommit",
     "--inject", "lease-shrink@5:tenant=XSBench-0,gb=0.5",
     "--inject", "pool-capacity-loss@9:gb=0.5"],
    ["--tenants", "3", "--workload", "XSBench", "--ports", "2", "--stagger", "5",
     "--pool-gb", "4", "--inject", "port-kill@5.0:port=0,duration=2.0",
     "--cluster", "1"],
    ["--tenants", "2", "--cluster", "2"],
    ["--tenants", "2", "--cluster", "3", "--pool-gb", "1.2",
     "--cluster-pool-gb", "8", "--uplink-scale", "2"],
    ["--tenants", "4", "--workload", "BFS", "--cluster", "2", "--seed", "1",
     "--pool-gb", "3", "--overcommit", "--ports", "2", "--port-capacity-scale", "2",
     "--epoch-seconds", "1.2", "--stagger", "2"],
    ["--tenants", "2", "--workload", "XSBench", "--cluster", "2", "--drain-gbs", "1",
     "--inject", "port-degrade@4:port=0,scale=0.25,duration=3,rack=1",
     "--inject", "lease-revoke@6:tenant=rack1-XSBench-0"],
    ["--tenants", "2", "--workload", "HPL", "--cluster", "1", "--overcommit",
     "--inject", "lease-shrink@2:tenant=rack0-HPL-1,gb=0.25"],
    ["--tenants", "3", "--workload", "XSBench", "--cluster", "2", "--pool-gb", "2",
     "--cluster-pool-gb", "2", "--stagger", "3",
     "--inject", "port-kill@4:port=0,duration=1.5,rack=1"],
]

#: :func:`figure_fabric_pool_timeline` keyword sets: racks and clusters,
#: capped and default pools, spilling, ports, staggers and splits.
TIMELINE_GRID = [
    dict(n_tenants=2, workload="XSBench"),
    dict(n_tenants=3, workload="Hypre", pool_capacity_bytes=2 * 1_200_000_000 + 1),
    dict(n_tenants=2, workload="XSBench", n_ports=2, stagger=6.0, n_racks=1,
         cluster_pool_bytes=1 << 32),
    dict(n_tenants=2, workload="XSBench", n_racks=2, stagger=3.0, seed=2),
    dict(n_tenants=2, workload="Hypre", n_racks=3,
         pool_capacity_bytes=1_200_000_001, cluster_pool_bytes=16 * 1_200_000_000),
    dict(n_tenants=4, workload="BFS", n_racks=2, n_ports=2, local_fraction=0.25),
]

#: :func:`figure_blast_radius` keyword sets: explicit, seeded and empty
#: schedules on rigid pools, and elastic pools that every lease fits.
BLAST_GRID = [
    dict(n_tenants=2, workload="XSBench", faults=["port-kill@5.0:port=0,duration=2.0"]),
    dict(n_tenants=2, workload="XSBench", fault_seed=3, n_fault_events=3),
    dict(n_tenants=3, workload="SuperLU", n_ports=2, stagger=2.0,
         fault_seed=1, n_fault_events=2, drain_bytes_per_s=2e9),
    dict(n_tenants=2, workload="XSBench", overcommit=True,
         faults=["lease-revoke@5:tenant=XSBench-1"]),
    dict(n_tenants=3, workload="Hypre", pool_capacity_bytes=2 * 1_200_000_000 + 1,
         faults=["lease-shrink@3:tenant=Hypre-0,gb=0.5"]),
    dict(n_tenants=2, workload="HPL", seed=1),
]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit status, stdout and stderr (a usage error's
    ``SystemExit`` becomes its status)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def fabric_argv(argv: list[str]) -> list[str]:
    """``--json fabric argv``, with a ``--seed S`` in ``argv`` moved in front
    of the subcommand, where the parser takes it."""
    if "--seed" not in argv:
        return ["--json", "fabric", *argv]
    at = argv.index("--seed")
    return ["--json", "--seed", argv[at + 1], "fabric", *argv[:at], *argv[at + 2:]]


def fabric_json(argv: list[str]) -> dict:
    status, out, err = run_cli(fabric_argv(argv))
    assert status == 0, err
    return json.loads(out)


def printed(data, old):
    """``data`` on the keys the old output ``old`` has, rows and timelines
    too, with a ``released`` lease (its tenant finished) read as
    ``granted``."""
    if isinstance(old, dict):
        return {key: printed(data[key], value) for key, value in old.items()}
    if isinstance(old, list) and old and isinstance(old[0], dict):
        return [printed(row, was) for row, was in zip(data, old, strict=True)]
    return "granted" if data == "released" else data


def lease_bytes(workload: str) -> int:
    return uniform_tenants(build_workload(workload), 1)[0].lease_bytes


@pytest.mark.parametrize("argv", CLI_GRID, ids=" ".join)
def test_cli_prints_what_the_old_builder_printed(argv):
    full = fabric_argv(argv)
    expected = json.loads(
        json.dumps(_to_jsonable(oracles.cmd_fabric(build_parser().parse_args(full))))
    )
    status, out, err = run_cli(full)
    assert status == 0, err
    assert printed(json.loads(out), expected) == printed(expected, expected)


@pytest.mark.parametrize("kwargs", TIMELINE_GRID, ids=repr)
def test_pool_timeline_figure_is_the_old_one(kwargs):
    old = oracles.figure_fabric_pool_timeline(**kwargs)
    assert printed(figure_fabric_pool_timeline(**kwargs), old) == printed(old, old)


@pytest.mark.parametrize("kwargs", BLAST_GRID, ids=repr)
def test_blast_radius_figure_is_the_old_one(kwargs):
    old = oracles.figure_blast_radius(**kwargs)
    assert printed(figure_blast_radius(**kwargs), old) == printed(old, old)


# -- the four drifts, mended -----------------------------------------------------


def test_blast_radius_baseline_is_the_same_scenario_without_faults():
    """Under ``overcommit`` the baseline pool is elastic too, so an empty
    schedule moves nothing."""
    fig = figure_blast_radius(
        n_tenants=3,
        workload="XSBench",
        pool_capacity_bytes=2 * lease_bytes("XSBench"),
        overcommit=True,
        faults=[],
    )
    assert fig["makespan_delta"] == 0.0
    assert fig["baseline"] == fig["faulted"]


def test_default_elastic_pool_of_node_local_tenants_runs():
    """Tenants that lease nothing still get a pool: one byte each."""
    data = fabric_json(
        ["--tenants", "2", "--workload", "XSBench", "--overcommit", "--local-fraction", "1"]
    )
    assert data["pool_capacity_gb"] == 2e-9
    assert [t["lease_state"] for t in data["tenants"]] == ["granted", "granted"]


def test_rack_and_one_rack_cluster_lose_pool_capacity_alike():
    """A cluster's racks default to exactly their leases, as a rack does, so
    a capacity loss revokes a lease in both."""
    argv = ["--tenants", "2", "--workload", "XSBench", "--inject", "pool-capacity-loss@5:gb=1"]
    rack, cluster = fabric_json(argv), fabric_json([*argv, "--cluster", "1"])
    assert round(rack["makespan"], 2) == 62.17
    assert cluster["makespan"] == rack["makespan"]
    for faults in (rack["faults"], cluster["faults"]):
        assert faults["revocations"] == 1
    by_name = {t["name"].removeprefix("rack0-"): t for t in cluster["tenants"]}
    for tenant in rack["tenants"]:
        twin = by_name[tenant["name"]]
        for key in ("node", "wait_s", "runtime_s", "baseline_s", "slowdown"):
            assert twin[key] == tenant[key], (tenant["name"], key)


def test_cluster_timeline_is_one_series_per_rack():
    data = fabric_json(
        ["--tenants", "2", "--workload", "XSBench", "--cluster", "2", "--timeline"]
    )
    assert set(data["timeline"]) == {"rack0", "rack1"}
    for series in data["timeline"].values():
        assert max(series["active_tenants"]) == 2
