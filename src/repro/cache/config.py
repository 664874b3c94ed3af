"""Cache-tier configuration: mode, geometry, policies, and device costs.

The cost model is a fast local cache device (think client-attached NVMe,
the role Open-CAS gives its cache volume): a fixed access latency plus a
bandwidth term, both far below a fabric round-trip.  All knobs validate
eagerly so a misconfigured cache fails at build time, not mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import CacheError
from ..units import kib, mib, ms, us
from .classify import IoClassRule


class CacheMode(Enum):
    """What the cache does with reads and writes (Open-CAS modes)."""

    #: Delegate everything untouched — event-identical to no cache.
    PASS_THROUGH = "pt"
    #: Reads promote; writes go to cache *and* backend synchronously.
    WRITE_THROUGH = "wt"
    #: Reads promote; writes dirty the cache and flush lazily.
    WRITE_BACK = "wb"
    #: Reads promote; writes bypass the cache (resident copies updated).
    WRITE_AROUND = "wa"


#: Accepted spellings -> mode (CLI/bench parsing).
_MODE_ALIASES = {
    "pt": CacheMode.PASS_THROUGH,
    "pass-through": CacheMode.PASS_THROUGH,
    "passthrough": CacheMode.PASS_THROUGH,
    "wt": CacheMode.WRITE_THROUGH,
    "write-through": CacheMode.WRITE_THROUGH,
    "wb": CacheMode.WRITE_BACK,
    "write-back": CacheMode.WRITE_BACK,
    "wa": CacheMode.WRITE_AROUND,
    "write-around": CacheMode.WRITE_AROUND,
}

PROMOTION_POLICIES = ("always", "nhit")
CLEANING_POLICIES = ("nop", "alru", "acp")


def parse_cache_mode(name: str) -> CacheMode:
    """Mode from a CLI spelling (``wb``, ``write-back``, ...)."""
    try:
        return _MODE_ALIASES[name.lower()]
    except KeyError:
        raise CacheError(
            f"unknown cache mode {name!r}; know {sorted(_MODE_ALIASES)}"
        ) from None


@dataclass(frozen=True)
class CacheConfig:
    """Every knob of one cache instance."""

    mode: CacheMode = CacheMode.WRITE_THROUGH
    #: Cache-line granularity in bytes (fills, dirtying, eviction).
    line_size: int = kib(64)
    #: Capacity in lines (line_size * capacity_lines bytes of cache).
    capacity_lines: int = 512

    #: Promotion policy: "always" or "nhit" (insert after N touches).
    promotion: str = "always"
    promotion_hit_threshold: int = 2

    #: Cleaning policy for dirty write-back lines: "nop" | "alru" | "acp".
    cleaning: str = "nop"
    #: ALRU: flush lines dirty for longer than this, scanning LRU-first.
    alru_staleness_ns: int = ms(2)
    alru_wake_ns: int = us(500)
    alru_flush_max: int = 8
    #: ACP: flush any dirty line, aggressively, in large batches.
    acp_wake_ns: int = us(100)
    acp_flush_max: int = 32

    #: Sequential cutoff: once a contiguous stream exceeds this many
    #: bytes (or one IO advertises a sequential run that long), the
    #: stream bypasses the cache.  0 disables the cutoff.
    seq_cutoff_bytes: int = mib(1)
    #: Concurrently tracked streams (Open-CAS tracks per-queue streams).
    seq_streams: int = 8

    #: Cache device cost model: fixed access latency + bandwidth term.
    read_hit_base_ns: int = us(6)
    write_hit_base_ns: int = us(8)
    #: Cache device bandwidth in bytes per microsecond (3200 = 3.2 GB/s).
    bw_bytes_per_us: int = 3200

    #: IO classification rules; empty = :func:`default_classes`.
    io_classes: tuple[IoClassRule, ...] = ()

    def __post_init__(self):
        if not isinstance(self.mode, CacheMode):
            raise CacheError(f"mode must be a CacheMode, got {self.mode!r}")
        if self.line_size < 512 or self.line_size % 512:
            raise CacheError(
                f"line_size must be a positive 512 B multiple, got {self.line_size}"
            )
        if self.capacity_lines < 1:
            raise CacheError(f"capacity_lines must be >= 1, got {self.capacity_lines}")
        if self.promotion not in PROMOTION_POLICIES:
            raise CacheError(
                f"unknown promotion policy {self.promotion!r}; know {PROMOTION_POLICIES}"
            )
        if self.promotion_hit_threshold < 1:
            raise CacheError(
                f"promotion_hit_threshold must be >= 1, got {self.promotion_hit_threshold}"
            )
        if self.cleaning not in CLEANING_POLICIES:
            raise CacheError(
                f"unknown cleaning policy {self.cleaning!r}; know {CLEANING_POLICIES}"
            )
        for name in ("alru_staleness_ns", "alru_wake_ns", "acp_wake_ns"):
            if getattr(self, name) <= 0:
                raise CacheError(f"{name} must be > 0")
        if self.alru_flush_max < 1 or self.acp_flush_max < 1:
            raise CacheError("cleaning flush batch sizes must be >= 1")
        if self.seq_cutoff_bytes < 0:
            raise CacheError(f"seq_cutoff_bytes must be >= 0, got {self.seq_cutoff_bytes}")
        if self.seq_streams < 1:
            raise CacheError(f"seq_streams must be >= 1, got {self.seq_streams}")
        if self.read_hit_base_ns < 0 or self.write_hit_base_ns < 0:
            raise CacheError("cache device base latencies must be >= 0")
        if self.bw_bytes_per_us < 1:
            raise CacheError(f"bw_bytes_per_us must be >= 1, got {self.bw_bytes_per_us}")

    # -- cache device cost model ------------------------------------------------

    def read_cost_ns(self, nbytes: int) -> int:
        """Service time of reading ``nbytes`` from the cache device."""
        return self.read_hit_base_ns + (nbytes * 1000) // self.bw_bytes_per_us

    def write_cost_ns(self, nbytes: int) -> int:
        """Service time of writing ``nbytes`` to the cache device."""
        return self.write_hit_base_ns + (nbytes * 1000) // self.bw_bytes_per_us
