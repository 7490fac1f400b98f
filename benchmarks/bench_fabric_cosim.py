"""Rack co-simulation sweep: tenant count × pool capacity (fabric extension).

Sweeps how per-tenant runtimes degrade as more tenants share one pool port
(emergent interference), and how shrinking the pool trades that contention
against admission queueing (tenants wait for leases instead of running
concurrently).
"""

from repro.config.units import GiB
from repro.fabric import ClusterCoSimulator, ClusterFabric, uniform_tenants
from repro.parallel import SweepRunner
from repro.workloads import build_workload


TENANT_COUNTS = (1, 2, 4, 6, 8)
#: Pool capacity as a multiple of one tenant's lease (None = fits everyone).
POOL_FACTORS = (None, 4, 2)


def run_point(workload, scale, factor, tenants):
    """One sweep point: a full rack co-simulation (a 1-rack cluster run to
    completion), returned as a plain row.

    Module-level and keyword-driven so :class:`repro.parallel.SweepRunner`
    can pickle it into worker processes and fingerprint its parameters.
    """
    rack = uniform_tenants(build_workload(workload, scale), tenants)
    lease = rack[0].lease_bytes
    capacity = (
        sum(max(t.lease_bytes, 1) for t in rack)
        if factor is None
        else min(factor, tenants) * lease + 1
    )
    result = ClusterCoSimulator(
        ClusterFabric(n_racks=1, nodes_per_rack=tenants), rack_pool_bytes=capacity
    ).run_to_completion([(0, tenant) for tenant in rack])
    finished = [t for t in result["tenants"] if t["runtime_s"] > 0]
    return {
        "pool": "unbounded" if factor is None else f"{factor}x-lease",
        "tenants": tenants,
        "mean_runtime": result["mean_runtime"],
        "mean_slowdown": result["mean_slowdown"],
        "mean_wait": float(sum(t["wait_s"] for t in finished) / max(len(finished), 1)),
        "makespan": result["makespan"],
        "max_leased_gb": result["max_leased_gb"] * 1e9 / GiB,
        "pool_gb": result["pool_capacity_gb"] * 1e9 / GiB,
    }


def run_sweep(workload="Hypre", scale=1.0, jobs=1):
    points = [
        {"workload": workload, "scale": scale, "factor": factor, "tenants": n}
        for factor in POOL_FACTORS
        for n in TENANT_COUNTS
    ]
    return SweepRunner(jobs=jobs).map(run_point, points, seed_param=None)


def test_fabric_cosim_sweep(benchmark, once, capsys):
    rows = once(benchmark, run_sweep)
    # Emergent interference: runtimes degrade monotonically with tenant count
    # when everyone is admitted at once.
    unbounded = [r for r in rows if r["pool"] == "unbounded"]
    for earlier, later in zip(unbounded, unbounded[1:]):
        assert later["mean_runtime"] >= earlier["mean_runtime"] - 1e-9
    assert unbounded[-1]["mean_slowdown"] > unbounded[0]["mean_slowdown"]
    # Leases never exceed the pool's capacity.
    for r in rows:
        assert r["max_leased_gb"] <= r["pool_gb"] + 1e-9
    with capsys.disabled():
        print("\n=== Rack co-simulation: tenant count x pool capacity (Hypre, 50-50) ===")
        print(
            f"{'pool':<12} {'tenants':>7} {'runtime':>9} {'slowdown':>9} "
            f"{'wait':>8} {'makespan':>9} {'leased':>8}"
        )
        for r in rows:
            print(
                f"{r['pool']:<12} {r['tenants']:>7} {r['mean_runtime']:>9.1f} "
                f"{r['mean_slowdown']:>9.2f} {r['mean_wait']:>8.1f} "
                f"{r['makespan']:>9.1f} {r['max_leased_gb']:>7.2f}G"
            )
