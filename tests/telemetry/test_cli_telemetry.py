"""End-to-end tests for the CLI telemetry flags and ``telemetry report``."""

import pytest

from repro import telemetry
from repro.cli import main

FABRIC_ARGS = ["fabric", "--tenants", "2", "--workload", "XSBench"]


@pytest.fixture(autouse=True)
def clean_telemetry():
    """The CLI toggles the process-wide switch; leave it clean afterwards."""
    yield
    telemetry.disable()
    telemetry.registry().reset()
    telemetry.tracer().reset()


def test_telemetry_flag_prints_report(capsys):
    assert main(["--telemetry"] + FABRIC_ARGS) == 0
    out = capsys.readouterr().out
    assert "telemetry report" in out
    assert "fabric.cosim.epoch_rollovers" in out
    assert "fabric.run" in out
    assert not telemetry.enabled()  # switched back off afterwards


def test_trace_out_writes_readable_dump(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(["--trace-out", str(trace)] + FABRIC_ARGS) == 0
    with open(trace, "r", encoding="utf-8") as fh:
        dump = telemetry.read_jsonl(fh)
    assert dump.meta["schema"] == telemetry.TELEMETRY_SCHEMA
    assert dump.registry.counter("fabric.cosim.epoch_rollovers").value > 0
    assert dump.registry.counter("fabric.solve.calls").value > 0
    assert any(s.name == "fabric.run" for s in dump.tracer.spans)
    # Solver spans nest under the run span.
    run_index = next(s.index for s in dump.tracer.spans if s.name == "fabric.run")
    assert any(
        s.depth > 0 for s in dump.tracer.spans if s.index != run_index
    )


def test_report_subcommand_reproduces_headlines(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(["--trace-out", str(trace)] + FABRIC_ARGS) == 0
    with open(trace, "r", encoding="utf-8") as fh:
        rollovers = telemetry.read_jsonl(fh).registry.counter(
            "fabric.cosim.epoch_rollovers"
        ).value
    capsys.readouterr()  # drop the run's own output

    assert main(["telemetry", "report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "telemetry report" in out
    assert f"fabric.cosim.epoch_rollovers = {int(rollovers)}" in out
    assert "fabric.run" in out


def test_report_subcommand_missing_file(tmp_path, capsys):
    assert main(["telemetry", "report", str(tmp_path / "nope.jsonl")]) == 2
    assert "telemetry" in capsys.readouterr().err


def test_run_without_flags_records_nothing(capsys):
    assert main(FABRIC_ARGS) == 0
    assert len(telemetry.registry()) == 0
    assert telemetry.tracer().spans == []
