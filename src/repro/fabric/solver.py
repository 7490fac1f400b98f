"""Vectorized fixed-point contention solving.

The damped fixed point of :meth:`repro.fabric.topology.FabricTopology.resolve`
is the hot path of every co-simulation epoch, and at cluster scale it runs
once per rack per epoch.  :func:`solve_fixed_point` is its one
implementation: a Jacobi iteration on flat arrays, so one call can resolve
one rack *or* a whole cluster's racks batched into a single demand vector
(racks are independent because every node belongs to exactly one port).

Per iteration every node's available share is the port's data capacity
minus what its co-runners currently *deliver* (never below ``min_share`` of
the capacity, never above the per-node link), and the node moves a
``damping`` fraction of the way to ``min(offered, available)``.  A
pure-Python reference of the same iteration, node by node, lives in the test
suite (``tests/fabric/oracles.py``); it differs only in computing per-port
background sums as an explicit sum over co-runners instead of
``port_total - own`` (float rounding, orders of magnitude below the
convergence tolerance), and ``tests/fabric/test_solver_equivalence.py``
holds the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Adaptive damping backoff: every ``BACKOFF_WINDOW`` iterations the solver
#: checks whether the residual has at least halved (``BACKOFF_IMPROVEMENT``)
#: since the previous window boundary.  A stalled residual means the
#: iteration is contracting too slowly (typically every node clamped to the
#: min-share floor, where the update is a pure geometric decay at rate
#: ``1 - damping``), so the solver halves the *retained* fraction —
#: ``damping ← 1 − (1 − damping) / 2`` — and continues.  The scalar
#: reference in the test suite applies the identical rule, keeping the
#: differential equivalence suite meaningful.
BACKOFF_WINDOW = 8
BACKOFF_IMPROVEMENT = 0.5


@dataclass(frozen=True)
class FixedPointResult:
    """Raw output of one (possibly batched) fixed-point solve.

    ``delivered`` and ``delta`` are aligned with the input arrays;
    ``iterations`` / ``converged`` / ``residual`` describe the global
    iteration (for a batched solve: iterations until *every* sub-problem
    converged, and the largest final update anywhere).  ``delta`` is the
    final iteration's per-entry |update|, letting a batched caller derive
    per-sub-problem residuals/convergence.
    """

    delivered: np.ndarray
    iterations: int
    converged: bool
    residual: float
    delta: np.ndarray


def solve_fixed_point(
    offered: np.ndarray,
    port_index: np.ndarray,
    *,
    capacity: float | np.ndarray,
    node_bandwidth: float | np.ndarray,
    min_share: float,
    damping: float | np.ndarray,
    iterations: int,
    tolerance: float,
) -> FixedPointResult:
    """Resolve port contention for ``offered`` demands on flat arrays.

    Parameters
    ----------
    offered:
        Demand per entry, already clipped to the node link, bytes/s.
    port_index:
        Dense port id per entry (entries sharing an id contend).  Ids only
        need to be non-negative ints; gaps are allowed.
    capacity / node_bandwidth:
        Port data capacity and per-node sustainable bandwidth, bytes/s —
        scalars for a homogeneous fabric or per-entry arrays for a batch of
        differently provisioned racks.
    min_share:
        Fraction of the capacity always left available (the link model's
        deadlock guard).
    damping:
        Initial fixed-point damping in (0, 1], scalar or per-entry (a
        batched solve uses each rack's own sharing-degree-derived damping).
        When the residual stalls across a :data:`BACKOFF_WINDOW` the solver
        adaptively moves the damping toward 1 (see the backoff constants);
        the reported diagnostics keep the initial value.
    iterations / tolerance:
        Iteration budget and convergence threshold in bytes/s.
    """
    offered = np.asarray(offered, dtype=np.float64)
    if offered.size == 0:
        return FixedPointResult(
            delivered=offered.copy(),
            iterations=1,
            converged=True,
            residual=0.0,
            delta=offered.copy(),
        )
    port_index = np.asarray(port_index, dtype=np.intp)
    n_ports = int(port_index.max()) + 1
    capacity = np.broadcast_to(np.asarray(capacity, dtype=np.float64), offered.shape)
    node_bandwidth = np.broadcast_to(
        np.asarray(node_bandwidth, dtype=np.float64), offered.shape
    )
    damping = np.broadcast_to(np.asarray(damping, dtype=np.float64), offered.shape)
    floor = min_share * capacity

    delivered = offered.copy()
    converged = False
    residual = 0.0
    delta = np.zeros_like(delivered)
    used = 0
    window_residual: float | None = None
    for _ in range(max(int(iterations), 1)):
        used += 1
        port_total = np.bincount(port_index, weights=delivered, minlength=n_ports)
        background = port_total[port_index] - delivered
        available = np.minimum(
            np.maximum(capacity - np.minimum(background, capacity), floor),
            node_bandwidth,
        )
        target = np.minimum(offered, available)
        updated = delivered + damping * (target - delivered)
        delta = np.abs(updated - delivered)
        residual = float(np.max(delta))
        delivered = updated
        if residual < tolerance:
            converged = True
            break
        if used % BACKOFF_WINDOW == 0:
            if window_residual is not None and residual > BACKOFF_IMPROVEMENT * window_residual:
                damping = 1.0 - 0.5 * (1.0 - damping)
            window_residual = residual
    return FixedPointResult(
        delivered=delivered,
        iterations=used,
        converged=converged,
        residual=residual,
        delta=delta,
    )

