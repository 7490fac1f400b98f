"""Memory configurations of leadership supercomputers (Figure 1 and Table 1).

The figures are taken from the paper's Table 1 (Top-10 systems of the
November 2022 Top500 list) and, for Figure 1, from the public specifications
of the No. 1 systems of the past 15 years.  Costs are *estimates* derived from
the paper's assumption that HBM carries a 3-5x unit-price premium over DDR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..models.cost import MemoryPriceModel


@dataclass(frozen=True)
class SystemMemoryConfig:
    """Memory configuration of one supercomputer (one row of Table 1)."""

    name: str
    rank: int
    ddr_gb_per_node: Optional[float]
    hbm_gb_per_node: Optional[float]
    hbm_bandwidth_tbs_per_node: Optional[float]
    nodes: int
    year: int

    @property
    def has_hbm(self) -> bool:
        """Whether the system has an HBM tier."""
        return bool(self.hbm_gb_per_node)

    @property
    def has_multi_tier_memory(self) -> bool:
        """Whether the node memory system has more than one tier."""
        return bool(self.ddr_gb_per_node) and bool(self.hbm_gb_per_node)

    def estimated_ddr_cost(self, prices: MemoryPriceModel = MemoryPriceModel()) -> float:
        """Estimated system-wide DDR cost, dollars (0 when the system has no DDR)."""
        if not self.ddr_gb_per_node:
            return 0.0
        return prices.ddr_cost(self.ddr_gb_per_node, self.nodes)

    def estimated_hbm_cost(self, prices: MemoryPriceModel = MemoryPriceModel()) -> float:
        """Estimated system-wide HBM cost (mid-range), dollars."""
        if not self.hbm_gb_per_node:
            return 0.0
        return prices.hbm_cost_mid(self.hbm_gb_per_node, self.nodes)


#: Table 1: the Top-10 systems of the November 2022 list.
TOP10_NOV2022: tuple[SystemMemoryConfig, ...] = (
    SystemMemoryConfig("Frontier", 1, 512, 512, 12.8, 9408, 2021),
    SystemMemoryConfig("Fugaku", 2, None, 32, 1.0, 158976, 2020),
    SystemMemoryConfig("LUMI-G", 3, 512, 512, 12.8, 2560, 2022),
    SystemMemoryConfig("Leonardo", 4, 512, 256, 8.2, 3456, 2022),
    SystemMemoryConfig("Summit", 5, 512, 96, 5.4, 4608, 2018),
    SystemMemoryConfig("Sierra", 6, 256, 64, 3.6, 4284, 2018),
    SystemMemoryConfig("Sunway TaihuLight", 7, 32, None, None, 40960, 2016),
    SystemMemoryConfig("Perlmutter (GPU)", 8, 256, 160, 6.2, 1536, 2021),
    SystemMemoryConfig("Selene", 9, 1024, 640, 16.0, 280, 2020),
    SystemMemoryConfig("Tianhe-2A", 10, 192, None, None, 16000, 2018),
)


@dataclass(frozen=True)
class MemoryEvolutionPoint:
    """One point of Figure 1: the No. 1 system of a given year."""

    year: int
    system: str
    memory_gb_per_node: float
    memory_bandwidth_gbs_per_node: float
    cores_per_node: int

    @property
    def bandwidth_per_core_gbs(self) -> float:
        """Memory bandwidth per core — the quantity behind the bandwidth wall."""
        if self.cores_per_node <= 0:
            return 0.0
        return self.memory_bandwidth_gbs_per_node / self.cores_per_node

    @property
    def capacity_per_core_gb(self) -> float:
        """Memory capacity per core."""
        if self.cores_per_node <= 0:
            return 0.0
        return self.memory_gb_per_node / self.cores_per_node


#: Figure 1: evolution of per-node memory capacity/bandwidth of No. 1 systems.
MEMORY_EVOLUTION: tuple[MemoryEvolutionPoint, ...] = (
    MemoryEvolutionPoint(2008, "Roadrunner", 16, 21, 13),
    MemoryEvolutionPoint(2010, "Jaguar", 16, 25, 12),
    MemoryEvolutionPoint(2011, "K computer", 16, 64, 8),
    MemoryEvolutionPoint(2012, "Titan", 38, 52, 16),
    MemoryEvolutionPoint(2013, "Tianhe-2", 64, 102, 24),
    MemoryEvolutionPoint(2016, "Sunway TaihuLight", 32, 136, 260),
    MemoryEvolutionPoint(2018, "Summit", 608, 1035, 44),
    MemoryEvolutionPoint(2020, "Fugaku", 32, 1024, 48),
    MemoryEvolutionPoint(2021, "Frontier", 1024, 12800 / 1.0, 64),
    MemoryEvolutionPoint(2022, "Frontier", 1024, 12800 / 1.0, 64),
)


def top10_systems() -> tuple[SystemMemoryConfig, ...]:
    """The Top-10 systems of Table 1."""
    return TOP10_NOV2022


def system(name: str) -> SystemMemoryConfig:
    """Look up one Top-10 system by name (case-insensitive prefix match)."""
    lowered = name.lower()
    for config in TOP10_NOV2022:
        if config.name.lower().startswith(lowered):
            return config
    raise KeyError(f"no Top-10 system matching {name!r}")


def memory_evolution() -> tuple[MemoryEvolutionPoint, ...]:
    """The Figure-1 evolution series."""
    return MEMORY_EVOLUTION


def multi_tier_share() -> float:
    """Fraction of the Top-10 systems with a DDR+HBM multi-tier memory system.

    The paper notes that 8 out of the Top-10 use HBM-DDR multi-tier memory
    (counting HBM-only Fugaku as tiered with respect to its HBM stacks).
    """
    tiered = sum(1 for s in TOP10_NOV2022 if s.has_hbm)
    return tiered / len(TOP10_NOV2022)
