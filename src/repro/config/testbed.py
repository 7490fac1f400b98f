"""Testbed (platform) configuration.

The paper's emulation platform is a dual-socket Intel Xeon (Skylake-X) system:
one socket plays the compute node, the memory attached to the second socket
plays the rack-level memory pool, and the UPI interconnect between the sockets
plays the remote link (Section 3.3).  The measured characteristics are:

* intra-socket (local tier):  73 GB/s bandwidth, 111 ns latency,
* inter-socket (remote tier): 34 GB/s bandwidth, 202 ns latency,
* remote link saturation observed around 85 GB/s of raw UPI traffic
  (protocol overheads make link traffic exceed data bandwidth).

:class:`TestbedConfig` captures those numbers together with the compute and
cache parameters needed by the roofline model and the cache simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import ConfigurationError
from .units import (
    CACHELINE_BYTES,
    PAGE_BYTES,
    GiB,
    KiB,
    MiB,
    gb_per_s,
    gflops,
    ns,
)


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry of a single cache level.

    Attributes
    ----------
    name:
        Human-readable level name, e.g. ``"L2"``.
    capacity_bytes:
        Total capacity of the cache in bytes.
    associativity:
        Number of ways per set.
    line_bytes:
        Cacheline size in bytes (64 on the emulated testbed).
    latency_ns:
        Load-to-use latency of a hit in this level, nanoseconds.
    """

    name: str
    capacity_bytes: int
    associativity: int
    line_bytes: int = CACHELINE_BYTES
    latency_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(f"{self.name}: capacity must be positive")
        if self.associativity <= 0:
            raise ConfigurationError(f"{self.name}: associativity must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError(
                f"{self.name}: line size must be a positive power of two"
            )
        if self.capacity_bytes % (self.associativity * self.line_bytes):
            raise ConfigurationError(
                f"{self.name}: capacity must be a multiple of associativity * line size"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets in the cache."""
        return self.capacity_bytes // (self.associativity * self.line_bytes)

    @property
    def n_lines(self) -> int:
        """Total number of cachelines the cache can hold."""
        return self.capacity_bytes // self.line_bytes


@dataclass(frozen=True)
class PrefetcherConfig:
    """Configuration of the L2 hardware stream prefetcher model.

    The paper controls the Skylake L2 prefetchers through MSR 0x1a4 (the two
    least-significant bits).  Our model keeps the same on/off switch plus a
    small number of behavioural knobs.

    Attributes
    ----------
    enabled:
        Whether hardware prefetching is active.
    degree:
        How many lines ahead the stream prefetcher runs once a stream is
        confirmed.
    detection_window:
        Number of consecutive (or fixed-stride) line accesses required to
        confirm a stream.
    """

    enabled: bool = True
    degree: int = 8
    detection_window: int = 3

    def __post_init__(self) -> None:
        if self.degree <= 0:
            raise ConfigurationError("prefetch degree must be positive")
        if self.detection_window <= 0:
            raise ConfigurationError("prefetch detection window must be positive")

    def disabled(self) -> "PrefetcherConfig":
        """Return a copy of this configuration with prefetching turned off."""
        return replace(self, enabled=False)


@dataclass(frozen=True)
class TestbedConfig:
    """Full description of the emulated platform.

    The defaults reproduce the paper's dual-socket Skylake-X emulation
    platform (Section 3.3).  All bandwidths are in bytes/s, latencies in
    seconds and compute rates in flop/s.
    """

    name: str = "skylake-x-emulation"
    #: Peak double-precision compute rate of the compute socket (flop/s).
    peak_flops: float = gflops(1100.0)
    #: Number of worker threads/cores used by applications on the compute socket.
    cores: int = 12
    #: Local (node-local DDR) tier bandwidth, bytes/s.
    local_bandwidth: float = gb_per_s(73.0)
    #: Local tier idle load-to-use latency, seconds.
    local_latency: float = ns(111.0)
    #: Remote (memory-pool over UPI) tier bandwidth, bytes/s.
    remote_bandwidth: float = gb_per_s(34.0)
    #: Remote tier idle load-to-use latency, seconds.
    remote_latency: float = ns(202.0)
    #: Peak raw traffic the UPI link can carry including protocol overheads, bytes/s.
    link_peak_traffic: float = gb_per_s(85.0)
    #: Multiplicative protocol overhead of raw link traffic relative to the data
    #: payload (requests, responses, write-backs and coherence messages all cross
    #: the link, which is why the paper's measured 85 GB/s peak traffic exceeds
    #: the 34 GB/s data bandwidth a single application sustains).
    link_protocol_overhead: float = 1.5
    #: Cacheline size, bytes.
    cacheline_bytes: int = CACHELINE_BYTES
    #: Page size used by the allocator, bytes (THP disabled per the paper).
    page_bytes: int = PAGE_BYTES
    #: Per-core cache hierarchy (L1D, L2) plus shared L3.
    cache_levels: tuple[CacheLevelConfig, ...] = (
        CacheLevelConfig("L1D", 32 * KiB, 8, latency_ns=1.2),
        CacheLevelConfig("L2", 1 * MiB, 16, latency_ns=4.0),
        CacheLevelConfig("L3", 22 * MiB, 11, latency_ns=20.0),
    )
    #: L2 hardware prefetcher behaviour.
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ConfigurationError("peak_flops must be positive")
        if self.cores <= 0:
            raise ConfigurationError("cores must be positive")
        for attr in (
            "local_bandwidth",
            "remote_bandwidth",
            "link_peak_traffic",
            "local_latency",
            "remote_latency",
        ):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive")
        if self.remote_bandwidth > self.local_bandwidth:
            raise ConfigurationError(
                "remote tier bandwidth must not exceed local tier bandwidth"
            )
        if self.remote_latency < self.local_latency:
            raise ConfigurationError(
                "remote tier latency must not be lower than local tier latency"
            )
        if self.link_protocol_overhead < 1.0:
            raise ConfigurationError("link protocol overhead must be >= 1.0")
        if not self.cache_levels:
            raise ConfigurationError("at least one cache level is required")
        if self.page_bytes % self.cacheline_bytes:
            raise ConfigurationError("page size must be a multiple of cacheline size")

    # -- derived quantities -------------------------------------------------

    @property
    def aggregate_bandwidth(self) -> float:
        """Upper bound on total memory bandwidth when both tiers are used.

        The paper's "misconception" discussion (Section 2.1) points out that an
        extra tier *adds* channels, so the aggregate exceeds the local tier
        alone.
        """
        return self.local_bandwidth + self.remote_bandwidth

    @property
    def bandwidth_ratio_remote(self) -> float:
        """Fraction of aggregate bandwidth provided by the remote tier (R_BW)."""
        return self.remote_bandwidth / self.aggregate_bandwidth

    @property
    def machine_balance(self) -> float:
        """Machine balance in flop/byte for the local tier (roofline ridge point)."""
        return self.peak_flops / self.local_bandwidth

    @property
    def llc(self) -> CacheLevelConfig:
        """The last-level cache configuration."""
        return self.cache_levels[-1]

    @property
    def l2(self) -> CacheLevelConfig:
        """The L2 cache configuration (where the modelled prefetcher lives)."""
        for level in self.cache_levels:
            if level.name.upper() == "L2":
                return level
        # Fall back to the middle level if no cache is literally named "L2".
        return self.cache_levels[min(1, len(self.cache_levels) - 1)]

    def with_prefetching(self, enabled: bool) -> "TestbedConfig":
        """Return a copy of the testbed with hardware prefetching toggled."""
        return replace(self, prefetcher=replace(self.prefetcher, enabled=enabled))

    def describe(self) -> Mapping[str, float]:
        """Return the headline platform numbers in the paper's units."""
        return {
            "peak_gflops": self.peak_flops / 1e9,
            "local_bandwidth_gbs": self.local_bandwidth / 1e9,
            "remote_bandwidth_gbs": self.remote_bandwidth / 1e9,
            "local_latency_ns": self.local_latency / 1e-9,
            "remote_latency_ns": self.remote_latency / 1e-9,
            "link_peak_traffic_gbs": self.link_peak_traffic / 1e9,
            "llc_mib": self.llc.capacity_bytes / MiB,
        }


#: The default emulation platform used throughout the reproduction.
SKYLAKE_EMULATION = TestbedConfig()


def small_testbed(scale: float = 0.01) -> TestbedConfig:
    """A scaled-down testbed for fast unit tests.

    Caches and page counts shrink by roughly ``scale`` while bandwidth and
    latency ratios stay identical, so behavioural trends are preserved at a
    fraction of the simulation cost.
    """
    if scale <= 0 or scale > 1:
        raise ConfigurationError("scale must be in (0, 1]")
    levels = (
        CacheLevelConfig("L1D", 8 * KiB, 4, latency_ns=1.2),
        CacheLevelConfig("L2", 64 * KiB, 8, latency_ns=4.0),
        CacheLevelConfig("L3", 512 * KiB, 16, latency_ns=20.0),
    )
    return TestbedConfig(
        name=f"small-testbed-{scale:g}",
        cache_levels=levels,
    )
