"""Property suite for the one scheduling study: trace × coupled × faults.

Random small ``sacct`` traces, replayed through
:meth:`CoupledSchedulingStudy.replay` on one to three racks with seeded port
and lease faults, overcommitted or not, must keep the study's invariants:

* every ingested job is replayed or counted unplaceable;
* every replayed job finishes in the static leg and in the fabric leg;
* no rack's sampled leased bytes exceed its pool capacity;
* no job runs faster coupled than static: the static trace profile is
  insensitive, so its runtime is the job's baseline, and a fabric tenant
  never outruns an idle fabric.

``HYPOTHESIS_PROFILE=nightly`` raises the example budget (conftest.py).
"""

from __future__ import annotations

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from repro.casestudies import scheduling
from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.config.errors import SchedulingError
from repro.config.units import GiB
from repro.data.slurm import synthesize_sacct_lines
from repro.fabric import FaultSchedule

FAULT_KINDS = ("port-degrade", "port-kill", "lease-shrink", "lease-revoke")


class RecordingProgress(scheduling.FabricCoupledProgress):
    """The fabric leg's progress model, kept for inspection after the run."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingProgress.instances.append(self)


@given(
    n_jobs=st.integers(min_value=1, max_value=30),
    trace_seed=st.integers(min_value=0, max_value=2**16),
    n_racks=st.integers(min_value=1, max_value=3),
    nodes_per_rack=st.integers(min_value=1, max_value=4),
    pool_capacity_gb=st.sampled_from((96.0, 512.0, 2048.0)),
    overcommit=st.booleans(),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    n_faults=st.integers(min_value=0, max_value=6),
    kinds=st.lists(st.sampled_from(FAULT_KINDS), min_size=1, max_size=4, unique=True),
)
def test_replay_keeps_its_invariants(
    n_jobs, trace_seed, n_racks, nodes_per_rack, pool_capacity_gb, overcommit,
    fault_seed, n_faults, kinds,
):
    schedule = FaultSchedule.seeded(
        seed=fault_seed,
        horizon=4 * 3600.0,
        n_events=n_faults,
        kinds=tuple(kinds),
        n_racks=n_racks,
        tenants=[f"job-{i}" for i in range(n_jobs)],
        nbytes=GiB,
        mean_duration=600.0,
    )
    study = CoupledSchedulingStudy(
        n_racks=n_racks,
        nodes_per_rack=nodes_per_rack,
        pool_capacity_gb=pool_capacity_gb,
        policy="pool-aware",
        fault_schedule=schedule,
        overcommit=overcommit,
    )
    RecordingProgress.instances.clear()
    with mock.patch.object(scheduling, "FabricCoupledProgress", RecordingProgress):
        try:
            result = study.replay(list(synthesize_sacct_lines(n_jobs, seed=trace_seed)))
        except SchedulingError as exc:
            # Every job cancelled, malformed or too large: the documented
            # diagnostic, not a crash.
            assert "no replayable jobs" in str(exc)
            return

    assert result.ingest["jobs_yielded"] == result.jobs_replayed + result.unplaceable_jobs
    static, coupled = result.outcome, result.coupled.coupled
    assert len(static.jobs) == len(coupled.jobs) == result.jobs_replayed
    assert all(job.finished for job in static.jobs)
    assert all(job.finished for job in coupled.jobs)

    (progress,) = RecordingProgress.instances
    for rack in progress.cluster_simulator().rack_sims:
        assert max(rack.telemetry.leased_bytes, default=0) <= rack.pool.capacity_bytes

    for a, b in zip(static.jobs, coupled.jobs):
        static_runtime = a.finish_time - a.start_time
        assert b.finish_time - b.start_time >= static_runtime * (1.0 - 1e-9)
