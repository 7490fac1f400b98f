"""Reference and production data feeding the simulators.

* :mod:`repro.data.top500` — supercomputer memory configurations
  (Figure 1, Table 1).
* :mod:`repro.data.slurm` — streaming ingestion of real Slurm ``sacct``
  traces into replayable job streams.
"""

from .slurm import (
    IngestReport,
    SacctReader,
    TraceJob,
    read_sacct,
    synthesize_sacct_lines,
    write_synthetic_trace,
)
from .top500 import (
    MEMORY_EVOLUTION,
    MemoryEvolutionPoint,
    SystemMemoryConfig,
    TOP10_NOV2022,
    memory_evolution,
    multi_tier_share,
    system,
    top10_systems,
)

__all__ = [
    "IngestReport",
    "SacctReader",
    "TraceJob",
    "read_sacct",
    "synthesize_sacct_lines",
    "write_synthetic_trace",
    "MEMORY_EVOLUTION",
    "MemoryEvolutionPoint",
    "SystemMemoryConfig",
    "TOP10_NOV2022",
    "memory_evolution",
    "multi_tier_share",
    "system",
    "top10_systems",
]
