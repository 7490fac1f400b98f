"""Unit constants and helpers used throughout the simulator.

All internal quantities use SI base units unless a name says otherwise:

* sizes and capacities in **bytes**,
* bandwidths in **bytes per second**,
* latencies and times in **seconds**,
* compute rates in **floating-point operations per second**.

The paper quotes bandwidths in GB/s (decimal) and capacities in GiB/GB
interchangeably; the helpers here make conversions explicit so configuration
files read like the paper's text.
"""

from __future__ import annotations

from .errors import ConfigurationError

# ---------------------------------------------------------------------------
# Decimal (SI) size units -- used for bandwidth figures such as "34 GB/s".
# ---------------------------------------------------------------------------
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

# ---------------------------------------------------------------------------
# Binary (IEC) size units -- used for memory capacities such as "512 GiB".
# ---------------------------------------------------------------------------
KiB = 2**10
MiB = 2**20
GiB = 2**30
TiB = 2**40

# ---------------------------------------------------------------------------
# Time units expressed in seconds.
# ---------------------------------------------------------------------------
NANOSECOND = 1e-9
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0

# ---------------------------------------------------------------------------
# Compute rates.
# ---------------------------------------------------------------------------
GFLOPS = 10**9
TFLOPS = 10**12

#: Cacheline size on the emulated Skylake-X testbed (bytes).
CACHELINE_BYTES = 64

#: Small page size used by the first-touch allocator (bytes). The paper
#: disables transparent huge pages, so 4 KiB pages are the relevant unit.
PAGE_BYTES = 4 * KiB


#: Suffix multipliers accepted by :func:`parse_size`.  Slurm's accounting
#: fields (``MaxRSS``, ``AveRSS``, ``ReqMem``) are KiB-based: a bare number is
#: **KiB** only in Slurm's own output, but this parser is fed the suffixed
#: form (``4056K``, ``12.3G``), where the suffix names a **binary** unit.
_SIZE_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": KiB,
    "M": MiB,
    "G": GiB,
    "T": TiB,
    "P": 2**50,
}


def parse_size(text: str, default_multiplier: int = 1) -> int:
    """Parse a Slurm-style size string (``4056K``, ``12.3G``, ``0``) to bytes.

    The K/M/G/T/P suffixes are **binary** (KiB-based), matching Slurm's
    accounting output; an optional trailing ``n`` (per-node) or ``c``
    (per-task) qualifier — as emitted by older ``sacct`` versions — is
    accepted and ignored.  A bare number is multiplied by
    ``default_multiplier`` (pass :data:`KiB` for fields Slurm reports in KiB
    without a suffix).  Raises :class:`~repro.config.errors.ConfigurationError`
    with the offending text on anything else; callers streaming untrusted
    traces catch it and skip the row instead of crashing.

    >>> parse_size("4056K")
    4153344
    >>> parse_size("2G") == 2 * GiB
    True
    >>> parse_size("0")
    0
    """
    if not isinstance(text, str):
        raise ConfigurationError(f"size must be a string, got {type(text).__name__}")
    cleaned = text.strip()
    if cleaned.endswith(("n", "c")):  # Slurm per-node / per-task qualifiers
        cleaned = cleaned[:-1]
    if not cleaned:
        raise ConfigurationError("empty size string (expected e.g. '4056K' or '12.3G')")
    suffix = cleaned[-1].upper()
    if suffix in _SIZE_SUFFIXES and not suffix.isdigit():
        number_text, multiplier = cleaned[:-1], _SIZE_SUFFIXES[suffix]
    else:
        number_text, multiplier = cleaned, default_multiplier
    try:
        value = float(number_text)
    except ValueError:
        raise ConfigurationError(
            f"malformed size {text!r}: {number_text!r} is not a number "
            "(expected e.g. '4056K' or '12.3G')"
        ) from None
    if value < 0:
        raise ConfigurationError(f"size {text!r} is negative")
    return int(round(value * multiplier))


def bytes_to_gb(n_bytes: float) -> float:
    """Convert bytes to decimal gigabytes (GB)."""
    return n_bytes / GB


def bytes_to_gib(n_bytes: float) -> float:
    """Convert bytes to binary gibibytes (GiB)."""
    return n_bytes / GiB


def gb(value: float) -> float:
    """Express ``value`` gigabytes in bytes."""
    return value * GB


def gib(value: float) -> float:
    """Express ``value`` gibibytes in bytes."""
    return value * GiB


def gb_per_s(value: float) -> float:
    """Express ``value`` GB/s in bytes per second."""
    return value * GB


def ns(value: float) -> float:
    """Express ``value`` nanoseconds in seconds."""
    return value * NANOSECOND


def gflops(value: float) -> float:
    """Express ``value`` Gflop/s in flop/s."""
    return value * GFLOPS


def seconds_to_ns(value: float) -> float:
    """Convert seconds to nanoseconds."""
    return value / NANOSECOND


def pages_for(n_bytes: int, page_bytes: int = PAGE_BYTES) -> int:
    """Number of pages needed to back an allocation of ``n_bytes`` bytes.

    Always at least one page for a non-empty allocation, mirroring how an
    allocator rounds requests up to page granularity.
    """
    if n_bytes <= 0:
        return 0
    return -(-int(n_bytes) // int(page_bytes))


def cachelines_for(n_bytes: int, line_bytes: int = CACHELINE_BYTES) -> int:
    """Number of cachelines spanned by ``n_bytes`` bytes (rounded up)."""
    if n_bytes <= 0:
        return 0
    return -(-int(n_bytes) // int(line_bytes))
