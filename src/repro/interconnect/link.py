"""Remote-link (UPI / CXL fabric) model.

The paper's emulation platform uses the UPI socket interconnect as the link
between the compute node and the memory pool.  Three different numbers
describe that link and all three matter for reproducing the paper's results:

* the **per-node sustainable data bandwidth** (34 GB/s on the testbed): the
  most remote-memory data a single application on the compute socket can
  stream, limited by its own request concurrency;
* the **peak raw link traffic** (≈85 GB/s): what a PCM ``sktXtraffic`` counter
  can report at most — requests, responses, write-backs and coherence
  messages all count, which is why this exceeds the data bandwidth;
* the **shared data capacity** (peak traffic divided by the protocol
  overhead): the total useful payload the link can move for *all* parties
  together.  Interference from other nodes eats into this shared capacity and
  adds queueing delay, but as long as enough capacity remains, a single
  application still reaches its own 34 GB/s.

:class:`RemoteLink` turns offered loads into delivered/available bandwidth,
effective latency and the traffic a PCM-style counter would observe.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.errors import ConfigurationError
from ..config.testbed import TestbedConfig
from .queueing import QueueingModel, MM1QueueingModel


@dataclass(frozen=True)
class LinkShare:
    """How the link treats one contributor under a given total load.

    Attributes
    ----------
    offered_bandwidth:
        Data bandwidth the contributor tried to push, bytes/s.
    available_bandwidth:
        Data bandwidth the link could give this contributor (shared capacity
        minus background, capped by the per-node sustainable bandwidth).
    delivered_bandwidth:
        Data bandwidth actually moved for it: min(offered, available).
    latency:
        Effective per-access latency seen by the contributor, seconds.
    utilization:
        Total link utilisation from offered traffic (may exceed 1 when
        oversubscribed).
    queueing_delay:
        Extra latency caused by contention, seconds.
    """

    offered_bandwidth: float
    available_bandwidth: float
    delivered_bandwidth: float
    latency: float
    utilization: float
    queueing_delay: float

    @property
    def slowdown(self) -> float:
        """Bandwidth slowdown factor (offered / delivered, >= 1)."""
        if self.delivered_bandwidth <= 0:
            return float("inf") if self.offered_bandwidth > 0 else 1.0
        return max(self.offered_bandwidth / self.delivered_bandwidth, 1.0)


class RemoteLink:
    """Shared link between compute node(s) and the memory pool.

    Parameters
    ----------
    testbed:
        Platform description providing the per-node data bandwidth, idle
        latency, peak raw traffic and protocol overhead of the link.
    queueing:
        Queueing model used for the contention-induced latency.  Defaults to
        an M/M/1-style model, which reproduces the paper's observation that
        contention keeps growing after the measured traffic saturates.
    """

    #: Minimum fraction of the shared capacity :meth:`share` always leaves
    #: its one contributor, so extreme oversubscription degrades but never
    #: deadlocks the single-node model.  The fabric's port solve needs no
    #: floor: max-min sharing gives each node at least an equal share.
    MIN_SHARE = 0.1

    def __init__(self, testbed: TestbedConfig, queueing: QueueingModel | None = None) -> None:
        self.testbed = testbed
        #: Per-node sustainable remote data bandwidth, bytes/s.
        self.node_bandwidth = testbed.remote_bandwidth
        self.idle_latency = testbed.remote_latency
        self.peak_traffic = testbed.link_peak_traffic
        self.protocol_overhead = testbed.link_protocol_overhead
        self.queueing = queueing if queueing is not None else MM1QueueingModel()
        if self.peak_traffic < self.node_bandwidth:
            raise ConfigurationError(
                "link peak traffic cannot be below the per-node data bandwidth"
            )

    # -- capacities -----------------------------------------------------------------

    @property
    def data_capacity(self) -> float:
        """Total useful payload the link can move for all contributors, bytes/s."""
        return self.peak_traffic / self.protocol_overhead

    # -- traffic accounting -----------------------------------------------------------

    def raw_traffic(self, data_bandwidth: float) -> float:
        """Raw link traffic (bytes/s) caused by a data bandwidth, incl. protocol overhead."""
        return max(data_bandwidth, 0.0) * self.protocol_overhead

    def measured_traffic(self, offered_data_bandwidth: float) -> float:
        """Traffic a PCM-style counter reports for an offered data bandwidth.

        The counter can never report more than the link can physically carry,
        so the measurement **saturates at the peak link traffic** even when
        the offered load (and therefore contention) keeps growing — this is
        exactly why the paper argues LBench is more precise than raw counters
        beyond the saturation point (Section 3.2, Figure 11 middle).
        """
        return min(self.raw_traffic(offered_data_bandwidth), self.peak_traffic)

    def utilization(self, total_offered_data_bandwidth: float) -> float:
        """Link utilisation from offered traffic (may exceed 1 when oversubscribed)."""
        return self.raw_traffic(total_offered_data_bandwidth) / self.peak_traffic

    def loi(self, offered_data_bandwidth: float) -> float:
        """Level of Interference: generated link traffic as a % of peak traffic.

        Generated traffic is what actually crosses the link, so it is capped
        at the shared data capacity.
        """
        generated = min(max(offered_data_bandwidth, 0.0), self.data_capacity)
        return 100.0 * self.raw_traffic(generated) / self.peak_traffic

    def bandwidth_for_loi(self, loi_percent: float) -> float:
        """Data bandwidth that produces a given Level of Interference."""
        if loi_percent < 0:
            raise ConfigurationError("LoI must be non-negative")
        return (loi_percent / 100.0) * self.peak_traffic / self.protocol_overhead

    # -- contention ----------------------------------------------------------------

    def share(
        self, own_data_bandwidth: float, background_data_bandwidth: float = 0.0
    ) -> LinkShare:
        """Resolve contention between one contributor and background traffic.

        The background occupies part of the shared data capacity; what remains
        (never less than :attr:`MIN_SHARE` of the capacity, and never more
        than the per-node sustainable bandwidth) is *available* to the
        contributor.  The effective latency is the idle latency plus a
        queueing delay that grows with the total offered utilisation — and
        keeps growing past saturation, modelling the queueing the paper
        attributes the extra contention to.
        """
        own = max(float(own_data_bandwidth), 0.0)
        background = max(float(background_data_bandwidth), 0.0)
        capacity = self.data_capacity

        background_delivered = min(background, capacity)
        available = max(capacity - background_delivered, self.MIN_SHARE * capacity)
        available = min(available, self.node_bandwidth)
        delivered = min(own, available)

        offered_utilization = self.utilization(own + background)
        queueing_delay = self.queueing.waiting_time(
            utilization=offered_utilization, service_time=self.idle_latency
        )
        return LinkShare(
            offered_bandwidth=own,
            available_bandwidth=available,
            delivered_bandwidth=delivered,
            latency=self.idle_latency + queueing_delay,
            utilization=offered_utilization,
            queueing_delay=queueing_delay,
        )

    def latency_under_load(self, total_offered_data_bandwidth: float) -> float:
        """Effective remote access latency when the link carries a total load."""
        utilization = self.utilization(total_offered_data_bandwidth)
        return self.idle_latency + self.queueing.waiting_time(
            utilization=utilization, service_time=self.idle_latency
        )
