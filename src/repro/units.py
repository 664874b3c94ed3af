"""Unit helpers used throughout the library.

The simulation clock is an integer count of **nanoseconds**; sizes are
integer **bytes**.  Keeping both as plain ints makes event ordering exact
and reproducible (no floating-point time drift), matching the guidance in
the HPC coding guides to prefer exact integer bookkeeping in hot loops.

Frequencies and bandwidths are expressed in Hz and bytes/second; helper
functions convert between human units and the internal representation.
"""

from __future__ import annotations

# --- time (nanoseconds) ----------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


def ns(value: float) -> int:
    """Nanoseconds as simulation ticks."""
    return int(round(value * NS))


def us(value: float) -> int:
    """Microseconds as simulation ticks."""
    return int(round(value * US))


def ms(value: float) -> int:
    """Milliseconds as simulation ticks."""
    return int(round(value * MS))


def seconds(value: float) -> int:
    """Seconds as simulation ticks."""
    return int(round(value * SEC))


def to_us(ticks: int) -> float:
    """Simulation ticks to microseconds."""
    return ticks / US


def to_ms(ticks: int) -> float:
    """Simulation ticks to milliseconds."""
    return ticks / MS


# --- sizes (bytes) ----------------------------------------------------------

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024

KB = 1000
MB = 1000 * 1000
GB = 1000 * 1000 * 1000


def kib(value: float) -> int:
    """Binary kilobytes as bytes."""
    return int(round(value * KiB))


def mib(value: float) -> int:
    """Binary megabytes as bytes."""
    return int(round(value * MiB))


# --- rates ------------------------------------------------------------------


def gbps(value: float) -> float:
    """Gigabits/second as bytes/second."""
    return value * 1e9 / 8.0


def mhz(value: float) -> float:
    """Megahertz as Hz."""
    return value * 1e6


def cycles_to_ns(cycles: int, clock_hz: float) -> int:
    """Duration of ``cycles`` clock cycles, in integer nanoseconds.

    Rounds up so a nonzero cycle count never collapses to zero ticks.
    """
    if cycles <= 0:
        return 0
    exact = cycles * 1e9 / clock_hz
    out = int(exact)
    return out if out == exact or out >= 1 else 1


def transfer_ns(nbytes: int, bytes_per_sec: float) -> int:
    """Serialization delay for ``nbytes`` at ``bytes_per_sec``, >= 0 ticks."""
    if nbytes <= 0:
        return 0
    return max(1, int(round(nbytes * 1e9 / bytes_per_sec)))


def throughput_mb_s(nbytes: int, ticks: int) -> float:
    """Throughput in MB/s (decimal) given bytes moved over elapsed ticks."""
    if ticks <= 0:
        return 0.0
    return (nbytes / MB) / (ticks / SEC)


def iops(n_ios: int, ticks: int) -> float:
    """I/O operations per second given a count over elapsed ticks."""
    if ticks <= 0:
        return 0.0
    return n_ios / (ticks / SEC)
