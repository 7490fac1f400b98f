"""One rack, built the way the library builds one: a 1-rack cluster.

:class:`~repro.fabric.cluster.ClusterCoSimulator` is the fabric's one public
simulator, and a standalone rack is its 1-rack case.  :func:`one_rack` sizes
that cluster for a tenant list the way a rack used to size itself: a node
per tenant and a pool of exactly their leases.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.fabric import ClusterCoSimulator, ClusterFabric, TenantSpec


def one_rack(
    tenants: Sequence[TenantSpec] = (),
    nodes: Optional[int] = None,
    pool_bytes: Optional[int] = None,
    n_ports: int = 1,
    port_capacity_scale: float = 1.0,
    epoch_seconds: Optional[float] = None,
    seed: int = 0,
    overcommit: bool = False,
) -> ClusterCoSimulator:
    """A 1-rack cluster for ``tenants``: ``nodes`` nodes (one per tenant by
    default) over ``n_ports`` pool ports, and a rack pool of ``pool_bytes``.

    The pool defaults to exactly the tenants' leases (a byte for a tenant
    that leases none) and, with no tenants, to the cluster's unbounded
    default.  The pool is elastic iff ``overcommit``; a test that needs
    another shrink floor sets ``sim.rack_sim(0).pool.min_lease_fraction``
    before it admits anyone.  :func:`run_rack` runs the tenants.
    """
    if pool_bytes is None and tenants:
        pool_bytes = sum(max(spec.lease_bytes, 1) for spec in tenants)
    return ClusterCoSimulator(
        ClusterFabric(
            n_racks=1,
            nodes_per_rack=len(tenants) if nodes is None else nodes,
            n_ports=n_ports,
            port_capacity_scale=port_capacity_scale,
        ),
        rack_pool_bytes=pool_bytes,
        epoch_seconds=epoch_seconds,
        seed=seed,
        overcommit=overcommit,
    )


def on_rack(tenants: Sequence[TenantSpec]) -> list[tuple[int, TenantSpec]]:
    """``tenants`` as arrivals on rack 0."""
    return [(0, spec) for spec in tenants]


def run_rack(
    tenants: Sequence[TenantSpec], **kwargs
) -> tuple[ClusterCoSimulator, dict]:
    """``tenants`` run to completion on ``one_rack(tenants, **kwargs)``: the
    rack and the summary it returned."""
    sim = one_rack(tenants, **kwargs)
    return sim, sim.run_to_completion(on_rack(tenants))
