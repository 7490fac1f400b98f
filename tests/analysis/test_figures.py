"""Tests for the figure builders (reduced problem sizes / run counts)."""

import numpy as np
import pytest

from repro.analysis import figures


def test_figure1_series():
    data = figures.figure1_memory_evolution()
    assert len(data["years"]) == len(data["memory_gb_per_node"]) >= 8
    assert data["years"] == sorted(data["years"])


def test_figure5_roofline_points_cover_both_regimes():
    series = figures.figure5_roofline(scale=1.0)
    labels = [p["label"] for p in series["points"]]
    assert "HPL-p2" in labels and "Hypre-p2" in labels
    hpl = next(p for p in series["points"] if p["label"] == "HPL-p2")
    hypre = next(p for p in series["points"] if p["label"] == "Hypre-p2")
    assert not hpl["memory_bound"]
    assert hypre["memory_bound"]
    # Every point lies under the roof.
    for point in series["points"]:
        assert point["efficiency"] <= 1.0 + 1e-9


@pytest.fixture(scope="module")
def scaling_curves():
    return figures.figure6_scaling_curves()


def test_figure6_panel_structure(scaling_curves):
    assert set(scaling_curves) == {"HPL", "Hypre", "NekRS", "BFS", "SuperLU", "XSBench"}
    for panels in scaling_curves.values():
        assert len(panels) == 3
        for curve in panels.values():
            assert curve["access_pct"][-1] == pytest.approx(100.0)


def test_figure6_reproduces_paper_shapes(scaling_curves):
    # HPL/Hypre uniform, BFS/XSBench skewed.
    def skew(name):
        return np.mean([c["skewness"] for c in scaling_curves[name].values()])

    assert skew("HPL") < 0.15
    assert skew("Hypre") < 0.15
    assert skew("BFS") > 0.4
    assert skew("XSBench") > 0.4

    # BFS curves shift left (more skew) as the input grows; HPL curves overlap.
    bfs = [c["skewness"] for c in scaling_curves["BFS"].values()]
    assert bfs[-1] > bfs[0]
    hpl = [c["skewness"] for c in scaling_curves["HPL"].values()]
    assert max(hpl) - min(hpl) < 0.05

    # SuperLU moves towards a more uniform distribution with larger inputs.
    superlu = [c["skewness"] for c in scaling_curves["SuperLU"].values()]
    assert superlu[-1] < superlu[0]


def test_figure7_timeline_shows_prefetch_speedup():
    panels = figures.figure7_prefetch_timeline(workloads=("NekRS",), steps_per_phase=10)
    nekrs = panels["NekRS"]
    with_pf = nekrs["with-prefetch"]
    without_pf = nekrs["without-prefetch"]
    assert with_pf["time"][-1] < without_pf["time"][-1]
    assert with_pf["l2_lines"].sum() >= without_pf["l2_lines"].sum() * 0.999


def test_figure8_reproduces_prefetch_orderings():
    rows = figures.figure8_prefetch_metrics()
    assert set(rows) == {"HPL", "Hypre", "NekRS", "BFS", "SuperLU", "XSBench"}
    # NekRS has the largest performance gain; XSBench essentially none.
    assert rows["NekRS"]["performance_gain"] == max(r["performance_gain"] for r in rows.values())
    assert rows["XSBench"]["performance_gain"] < 0.05
    # SuperLU has by far the largest excessive traffic.
    assert rows["SuperLU"]["excess_traffic"] == max(r["excess_traffic"] for r in rows.values())
    assert rows["SuperLU"]["excess_traffic"] > 0.2
    # Hypre and NekRS have the highest coverage; XSBench below 5%.
    assert rows["Hypre"]["coverage"] > 0.6 and rows["NekRS"]["coverage"] > 0.6
    assert rows["XSBench"]["coverage"] < 0.05


def test_figure9_reference_lines_and_xsbench_claim():
    panels = figures.figure9_tier_access(local_fractions=(0.75, 0.25))
    assert set(panels) == {"75-25", "25-75"}
    for label, panel in panels.items():
        assert 0.0 < panel["capacity_ratio"] < 1.0
        assert 0.0 < panel["bandwidth_ratio"] < 1.0
        labels = [row["label"] for row in panel["phases"]]
        assert "Hypre-p2" in labels and "XSBench-p2" in labels
        xs = [r for r in panel["phases"] if r["label"].startswith("XSBench")]
        assert all(r["remote_access_ratio"] < 0.10 for r in xs)
    # More pooling -> higher capacity reference line.
    assert panels["25-75"]["capacity_ratio"] > panels["75-25"]["capacity_ratio"]


def test_figure10_sensitivity_orderings():
    panels = figures.figure10_sensitivity(
        local_fractions=(0.50,), loi_levels=(0.0, 50.0)
    )
    rows = panels["50-50"]
    # Monotone degradation and the paper's extremes: Hypre/NekRS sensitive, XSBench not.
    for series in rows.values():
        rel = series["relative_performance"]
        assert rel[0] == pytest.approx(1.0)
        assert rel[-1] <= 1.0 + 1e-9
    assert rows["Hypre"]["max_loss"] > rows["XSBench"]["max_loss"]
    assert rows["NekRS"]["max_loss"] > rows["HPL"]["max_loss"]
    assert rows["XSBench"]["max_loss"] < 0.05


def test_figure11_lbench_panels():
    data = figures.figure11_lbench(background_flops=(1, 8, 64), intensities=(10, 30, 50))
    left = data["loi_scaling"]["2-threads"]
    assert [p["configured"] for p in left] == [10, 30, 50]
    assert all(abs(p["measured"] - p["configured"]) < 8 for p in left)
    middle = data["contention_curve"]
    assert middle[0]["pcm_traffic"] >= middle[-1]["pcm_traffic"]
    assert middle[0]["interference_coefficient"] > middle[-1]["interference_coefficient"]
    right = data["application_ic"]
    assert right["Hypre"]["interference_coefficient"] > right["XSBench"]["interference_coefficient"]
    assert data["loi_calibration"][10.0] > data["loi_calibration"][50.0]


def test_figure12_bfs_case_study_summary():
    data = figures.figure12_bfs_case_study(with_sensitivity=False)
    assert len(data["rows"]) == 6
    for config in ("50%-pooled", "75%-pooled"):
        assert data["speedups"][config]["optimized"] > 0
        assert data["remote_reduction"][config]["optimized"] > data["remote_reduction"][config]["reordered"] * 0.99


def test_figure13_scheduling_small():
    data = figures.figure13_scheduling(n_runs=10, workloads=("Hypre", "XSBench"))
    assert set(data["per_workload"]) == {"Hypre", "XSBench"}
    assert data["mean_speedups"]["Hypre"] >= data["mean_speedups"]["XSBench"]
    assert data["most_improved"] == "Hypre"


def test_figure_fabric_pool_timeline():
    data = figures.figure_fabric_pool_timeline(n_tenants=3, workload="Hypre")
    timeline = data["timeline"]
    lengths = {len(series) for series in timeline.values()}
    assert len(lengths) == 1 and lengths.pop() > 0
    # Leased capacity never exceeds the pool and the port runs hot.
    assert max(timeline["leased_gb"]) <= data["summary"]["pool_capacity_gb"] + 1e-9
    assert max(timeline["max_port_utilization"]) > 0.5
    # Every finished tenant has an emergent background-interference timeline.
    assert set(data["tenant_background_loi"]) == {"Hypre-0", "Hypre-1", "Hypre-2"}
    for series in data["tenant_background_loi"].values():
        assert max(series["loi"]) > 0
    assert data["summary"]["mean_slowdown"] > 1.0


def test_figure_fabric_pool_timeline_capped_pool_queues_tenants():
    lease_bytes = int(0.5 * 2.4e9)
    data = figures.figure_fabric_pool_timeline(
        n_tenants=3, workload="Hypre", pool_capacity_bytes=2 * lease_bytes + 1
    )
    assert max(data["timeline"]["queue_depth"]) >= 1
    waits = [t["wait_s"] for t in data["summary"]["tenants"]]
    assert max(waits) > 0


def test_figure_fabric_pool_timeline_three_racks():
    """The multi-rack view: per-rack timelines, every tenant's background."""
    data = figures.figure_fabric_pool_timeline(
        n_tenants=2, workload="Hypre", n_racks=3
    )
    assert set(data["timeline"]) == {"rack0", "rack1", "rack2"}
    for series in data["timeline"].values():
        lengths = {len(column) for column in series.values()}
        assert len(lengths) == 1 and lengths.pop() > 0
    expected = {f"rack{r}-Hypre-{i}" for r in range(3) for i in range(2)}
    assert set(data["tenant_background_loi"]) == expected
    for series in data["tenant_background_loi"].values():
        assert max(series["loi"]) > 0
    summary = data["summary"]
    assert summary["n_racks"] == 3
    assert len(summary["tenants"]) == 6
    assert summary["mean_slowdown"] > 1.0


def test_figure_fabric_pool_timeline_racks_admit_at_arrival():
    """A tenant that arrives after its rack's first one finished still runs.

    One lease per rack pool, arrivals 1.5 baselines apart: the second tenant
    starts when it arrives, after the first returned its lease, and its
    background timeline is reported with the first's.
    """
    from repro.fabric import uniform_tenants
    from repro.fabric.cosim import baseline_run
    from repro.workloads import build_workload

    spec = build_workload("XSBench")
    baseline = baseline_run(spec).total_runtime
    data = figures.figure_fabric_pool_timeline(
        n_tenants=2,
        workload="XSBench",
        n_racks=2,
        stagger=1.5 * baseline,
        pool_capacity_bytes=uniform_tenants(spec, 1)[0].lease_bytes + 1,
    )
    names = {f"rack{r}-XSBench-{i}" for r in range(2) for i in range(2)}
    assert set(data["tenant_background_loi"]) == names
    for tenant in data["summary"]["tenants"]:
        assert tenant["lease_state"] == "granted"
        assert tenant["wait_s"] == pytest.approx(0.0, abs=1e-9)
        assert tenant["slowdown"] == pytest.approx(1.0, rel=1e-9)


def test_figure_fabric_pool_timeline_three_racks_spills():
    """Capped rack pools + a cluster pool: spilled tenants are reported."""
    lease_bytes = int(0.5 * 2.4e9)
    data = figures.figure_fabric_pool_timeline(
        n_tenants=2,
        workload="Hypre",
        n_racks=3,
        pool_capacity_bytes=lease_bytes + 1,
        cluster_pool_bytes=16 * lease_bytes,
    )
    summary = data["summary"]
    assert summary["spilled_tenants"] == 3
    spilled = {t["name"] for t in summary["tenants"] if t["spilled"]}
    assert spilled == {"rack0-Hypre-1", "rack1-Hypre-1", "rack2-Hypre-1"}
    # Spilled tenants still finished, just slower than their local peers.
    for tenant in summary["tenants"]:
        assert tenant["runtime_s"] is not None
        assert tenant["slowdown"] >= 1.0

