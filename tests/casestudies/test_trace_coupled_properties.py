"""Property suite for the one scheduling study: trace × coupled × faults.

Random small ``sacct`` traces, replayed through
:meth:`CoupledSchedulingStudy.replay` on one to three racks with seeded port
and lease faults, overcommitted or not, must keep the study's invariants:

* every ingested job is replayed or counted unplaceable;
* every replayed job finishes in the static leg and in the fabric leg;
* no rack's sampled leased bytes exceed its pool capacity;
* no job runs faster coupled than static: the static trace profile is
  insensitive, so its runtime is the job's baseline, and a fabric tenant
  never outruns an idle fabric;
* every lease event whose victim runs when it fires acts on it, on the rack
  the job was placed on, whatever rack the event names: a revoke counts one
  revocation, a shrink reclaims what it asks for or the whole lease.

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
from repro.fabric.cosim import RackCoSimulator

FAULT_KINDS = ("port-degrade", "port-kill", "lease-shrink", "lease-revoke")


class RecordingProgress(scheduling.FabricCoupledProgress):
    """The fabric leg's progress model, kept for inspection after the run."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingProgress.instances.append(self)


def recording_apply_fault(missed: list):
    """``RackCoSimulator.apply_fault`` that appends to ``missed`` every lease
    event whose victim runs when it fires but that does not act on it."""
    apply_fault = RackCoSimulator.apply_fault

    def apply(rack, event):
        victim = None
        if event.kind in ("lease-revoke", "lease-shrink"):
            cluster = RecordingProgress.instances[-1].cluster_simulator()
            victim = cluster.tenant_states.get(event.tenant)
        if victim is None or not victim.running:
            return apply_fault(rack, event)
        revocations, migrated = victim.revocations, victim.migrated_bytes
        wanted = min(event.nbytes or 0, victim.lease.nbytes)
        apply_fault(rack, event)
        acted = rack.tenant_states.get(event.tenant) is victim and (
            victim.revocations == revocations + 1
            if event.kind == "lease-revoke"
            else victim.migrated_bytes - migrated >= wanted
        )
        if not acted:
            missed.append(event)

    return apply


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
    missed: list = []
    with mock.patch.object(
        scheduling, "FabricCoupledProgress", RecordingProgress
    ), mock.patch.object(RackCoSimulator, "apply_fault", recording_apply_fault(missed)):
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

    assert missed == []
