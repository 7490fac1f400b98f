"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_table_1_text(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Frontier" in out
    assert "est_ddr_cost_musd" in out


def test_table_2_json(capsys):
    assert main(["--json", "table", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    assert rows[0]["application"] == "HPL"


def test_unknown_table_number(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["table", "7"])


def test_figure_1(capsys):
    assert main(["--json", "figure", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "years" in data


def test_figure_8(capsys):
    assert main(["--json", "figure", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"HPL", "Hypre", "NekRS", "BFS", "SuperLU", "XSBench"}


def test_unknown_figure_number(capsys):
    assert main(["figure", "99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_profile_command_levels(capsys):
    assert main(["--json", "profile", "XSBench", "--levels", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["workload"] == "XSBench"
    assert "level1" in data and "level2" in data and "level3" in data
    assert data["level2"]["phases"][0]["remote_access_ratio"] < 0.2
    assert data["level3"]["interference_coefficient"] >= 1.0


def test_profile_command_level1_only(capsys):
    assert main(["--json", "profile", "HPL", "--levels", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "level2" not in data


def test_profile_accepts_xs_alias(capsys):
    assert main(["--json", "profile", "XS", "--levels", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["workload"] == "XSBench"


def test_bfs_case_study_command(capsys):
    assert main(["--json", "bfs-case-study", "--no-sensitivity"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == 6


def test_scheduling_command_small(capsys):
    assert main(["--json", "scheduling", "--runs", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "Hypre" in data
    assert "mean_speedup" in data["Hypre"]


def test_text_output_mode(capsys):
    assert main(["figure", "1"]) == 0
    out = capsys.readouterr().out
    assert "years" in out


def test_fabric_command(capsys):
    assert main(["--json", "fabric", "--tenants", "3", "--workload", "Hypre"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["tenants"]) == 3
    assert data["mean_slowdown"] > 1.0
    assert data["max_leased_gb"] <= data["pool_capacity_gb"] + 1e-9
    assert "timeline" not in data


def test_fabric_command_with_timeline_and_capped_pool(capsys):
    assert (
        main(
            [
                "--json",
                "fabric",
                "--tenants",
                "3",
                "--pool-gb",
                "2.4",
                "--timeline",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert max(data["timeline"]["leased_gb"]) <= 2.4 * 1.073741824 + 1e-9
    # Only two leases fit, so the third tenant waits.
    waits = sorted(t["wait_s"] for t in data["tenants"])
    assert waits[-1] > 0


def test_fabric_cluster_admits_tenants_at_their_arrival(capsys):
    """A 1-rack cluster frees a finished tenant's lease before the next
    arrival, as the rack does: same waits, same makespan."""
    argv = [
        "--json", "fabric", "--tenants", "3", "--workload", "XSBench",
        "--stagger", "20", "--pool-gb", "1.862645149230957",
        "--epoch-seconds", "0.8333",
    ]
    assert main(argv) == 0
    rack = json.loads(capsys.readouterr().out)
    assert main(argv + ["--cluster", "1"]) == 0
    cluster = json.loads(capsys.readouterr().out)
    assert round(rack["makespan"], 2) == round(cluster["makespan"], 2) == 100.0
    assert [round(t["wait_s"], 2) for t in cluster["tenants"]] == [
        round(t["wait_s"], 2) for t in rack["tenants"]
    ] == [0.0, 13.33, 26.67]


class TestNumericFlagHardening:
    """Malformed numeric flags fail with an argparse diagnostic, never a
    traceback (the repro.data.slurm error style, applied CLI-wide)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scheduling", "--runs", "0"],
            ["scheduling", "--runs", "abc"],
            ["scheduling", "--racks", "-2"],
            ["scheduling", "--pool-gb", "0"],
            ["scheduling", "--pool-gb", "nan"],
            ["scheduling", "--stagger", "-1"],
            ["scheduling", "--cluster-pool-gb", "-1"],
            ["scheduling", "--trace-limit", "0"],
            ["scheduling", "--trace-local-fraction", "1.5"],
            ["scheduling", "--trace-window", "oops"],
            ["scheduling", "--trace-window", "1:2:3"],
            ["fabric", "--tenants", "0"],
            ["fabric", "--local-fraction", "2.0"],
            ["fabric", "--epoch-seconds", "-0.5"],
            ["fabric", "--drain-gbs", "nan"],
            ["scheduling", "--coupled", "--drain-gbs", "inf"],
            ["telemetry", "report", "/dev/null", "--top", "-1"],
            ["figure", "13", "--runs", "0"],
            ["--jobs", "0", "table", "1"],
        ],
    )
    def test_bad_numeric_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "usage:" in err

    def test_validator_messages_are_actionable(self, capsys):
        with pytest.raises(SystemExit):
            main(["scheduling", "--runs", "-3"])
        assert "must be >= 1, got -3" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["scheduling", "--trace-window", "100:50"])
        assert "before start" in capsys.readouterr().err

    def test_inject_nonfinite_time_is_clean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fabric", "--tenants", "2", "--inject", "port-kill@nan:port=0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "Traceback" not in err

    def test_valid_edge_values_still_accepted(self, capsys):
        assert main(["--json", "scheduling", "--runs", "1"]) == 0
        capsys.readouterr()


class TestLibraryErrorsAreDiagnostics:
    """Inputs the parser lets through but the library rejects end in one
    ``error:`` line and exit 2, as usage errors do, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fabric", "--local-fraction", "0"],
            ["fabric", "--workload", "Nope"],
            ["fabric", "--cluster", "-1"],
        ],
        ids=" ".join,
    )
    def test_exits_2_with_a_diagnostic(self, argv, capsys):
        try:
            status = main(argv)
        except SystemExit as exc:  # rejected by the parser
            status = exc.code
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith(("error: ", "repro-dmem fabric: error: "))

    def test_library_error_is_one_line(self, capsys):
        assert main(["fabric", "--workload", "Nope"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown workload 'Nope'; known: "
            "['BFS', 'HPL', 'Hypre', 'NekRS', 'SuperLU', 'XSBench']\n"
        )
