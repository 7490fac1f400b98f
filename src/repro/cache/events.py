"""Hardware performance event names used by the profiler.

The paper's profiler programs a small set of Skylake-X events; the simulator
produces counters under the same names so the profiler layer can apply the
paper's formulas verbatim (Equations 1 and 2 for prefetch accuracy and
coverage, the OFFCORE local/remote DRAM events for the Level-2 access ratios,
and the UPI ``sktXtraffic`` counters for Level-3 link traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping


# -- L2 prefetcher events (Level 1, Section 4.2) -----------------------------

#: Prefetch requests for data reads issued by the L2 hardware prefetcher.
PF_L2_DATA_RD = "PF_L2_DATA_RD"
#: Prefetch requests for stores (read-for-ownership) issued by the L2 prefetcher.
PF_L2_RFO = "PF_L2_RFO"
#: All cachelines brought into L2 (demand and prefetch).
L2_LINES_IN = "L2_LINES_IN"
#: Prefetched cachelines that were evicted without ever being accessed.
USELESS_HWPF = "USELESS_HWPF"

# -- Offcore response events (Levels 1 and 2) ---------------------------------

#: Bytes-equivalent count of cachelines that missed the L3 and went to memory.
OFFCORE_L3_MISS = "OFFCORE_RESPONSE.L3_MISS"
#: L3 misses served by the node-local DRAM tier.
OFFCORE_LOCAL_DRAM = "OFFCORE_RESPONSE.L3_MISS.LOCAL_DRAM"
#: L3 misses served by the remote tier (memory pool over the link).
OFFCORE_REMOTE_DRAM = "OFFCORE_RESPONSE.L3_MISS.REMOTE_DRAM"

# -- Floating point / timing events (Level 1 roofline placement) --------------

#: Retired double-precision floating point operations (scalar+vector, flop count).
FP_ARITH_OPS = "FP_ARITH_INST_RETIRED.ALL"
#: Elapsed wall-clock time of the measured region, seconds.
ELAPSED_SECONDS = "ELAPSED_SECONDS"

# -- UPI / link events (Level 3, Intel PCM sktXtraffic) -----------------------

#: Raw traffic injected on the link to the memory pool, bytes (incl. protocol overhead).
UPI_TRAFFIC_BYTES = "UPI.SKT_TRAFFIC_BYTES"
#: Average utilisation of the remote link during the measured region (0..1).
UPI_UTILIZATION = "UPI.UTILIZATION"

#: All event names the simulator can produce.
ALL_EVENTS = (
    PF_L2_DATA_RD,
    PF_L2_RFO,
    L2_LINES_IN,
    USELESS_HWPF,
    OFFCORE_L3_MISS,
    OFFCORE_LOCAL_DRAM,
    OFFCORE_REMOTE_DRAM,
    FP_ARITH_OPS,
    ELAPSED_SECONDS,
    UPI_TRAFFIC_BYTES,
    UPI_UTILIZATION,
)


@dataclass
class CounterSet:
    """A mutable bag of named performance counters.

    Counters are floats because the models derive them from byte volumes and
    fractions.  The class supports merging (for aggregating phases into
    program totals) and dict-like access.
    """

    values: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        """Accumulate ``value`` into counter ``name``."""
        self.values[name] = self.values.get(name, 0.0) + float(value)

    def set(self, name: str, value: float) -> None:
        """Overwrite counter ``name``."""
        self.values[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        """Read counter ``name`` (0 if never written)."""
        return self.values.get(name, default)

    def __getitem__(self, name: str) -> float:
        return self.values.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def merged(self, other: "CounterSet") -> "CounterSet":
        """A new counter set with the sum of both operands."""
        result = CounterSet(dict(self.values))
        for name, value in other.values.items():
            result.add(name, value)
        return result

    def update_from(self, mapping: Mapping[str, float]) -> None:
        """Accumulate every entry of ``mapping``."""
        for name, value in mapping.items():
            self.add(name, value)

    def as_dict(self) -> Dict[str, float]:
        """A copy of the counter values."""
        return dict(self.values)
