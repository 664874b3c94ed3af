"""Promotion and cleaning policies for the cache tier.

Promotion decides whether a miss earns residency (Open-CAS: ``always``
vs ``nhit``); cleaning decides when dirty write-back lines flush to the
backend (Open-CAS: NOP / ALRU / ACP).  Cleaning policies run as
simulation processes inside the cache engine; they sleep on an event
while the cache holds no dirty data, so an idle cache schedules zero
events and the simulation terminates normally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Generator

from ..errors import CacheError

if TYPE_CHECKING:  # pragma: no cover
    from .config import CacheConfig
    from .engine import CachedImage


# -- promotion ----------------------------------------------------------------


class AlwaysPromote:
    """Every miss is inserted."""

    name = "always"

    def should_promote(self, line_id: int) -> bool:
        return True


class NHitPromote:
    """Insert a line only once it has missed ``threshold`` times.

    Touch counts for non-resident lines live in a bounded FIFO map (as
    in Open-CAS's promotion policy NHIT), so a scan over a huge address
    space cannot grow client memory without bound.
    """

    name = "nhit"

    def __init__(self, threshold: int, window: int = 8192):
        if threshold < 1:
            raise CacheError(f"nhit threshold must be >= 1, got {threshold}")
        if window < 1:
            raise CacheError(f"nhit window must be >= 1, got {window}")
        self.threshold = threshold
        self.window = window
        self._touches: "OrderedDict[int, int]" = OrderedDict()

    def should_promote(self, line_id: int) -> bool:
        count = self._touches.pop(line_id, 0) + 1
        if count >= self.threshold:
            return True
        self._touches[line_id] = count
        while len(self._touches) > self.window:
            self._touches.popitem(last=False)
        return False


def make_promotion(config: "CacheConfig"):
    """Promotion policy instance from a config."""
    if config.promotion == "always":
        return AlwaysPromote()
    return NHitPromote(config.promotion_hit_threshold)


# -- cleaning -----------------------------------------------------------------


class NopCleaning:
    """No background cleaning: dirty lines flush only on demand
    (eviction, explicit flush, epoch invalidation)."""

    name = "nop"
    runs = False

    def run(self, cache: "CachedImage") -> Generator:  # pragma: no cover
        raise CacheError("NOP cleaning has no background process")


class AlruCleaning:
    """ALRU-style aged flush: lines dirty longer than ``staleness_ns``
    are written back, oldest (LRU) first, a bounded batch per wakeup."""

    name = "alru"
    runs = True

    def __init__(self, staleness_ns: int, wake_ns: int, flush_max: int):
        self.staleness_ns = staleness_ns
        self.wake_ns = wake_ns
        self.flush_max = flush_max

    def run(self, cache: "CachedImage") -> Generator:
        env = cache.env
        while True:
            if cache.store.dirty_count == 0:
                yield cache.dirty_event()
            dirty = cache.store.dirty_lines_lru()
            if not dirty:
                continue
            deadline = env.now - self.staleness_ns
            stale = [ln for ln in dirty if ln.dirty_since_ns <= deadline]
            if not stale:
                # Nothing aged yet: sleep until the oldest line matures
                # (never busy-wake faster than the scan cadence).
                oldest = min(ln.dirty_since_ns for ln in dirty)
                yield env.timeout(max(self.wake_ns, oldest + self.staleness_ns - env.now))
                continue
            yield from cache.flush_lines(stale[: self.flush_max])
            yield env.timeout(self.wake_ns)


class AcpCleaning:
    """ACP-style aggressive flush: any dirty line is written back as
    fast as the wake cadence allows, in large batches."""

    name = "acp"
    runs = True

    def __init__(self, wake_ns: int, flush_max: int):
        self.wake_ns = wake_ns
        self.flush_max = flush_max

    def run(self, cache: "CachedImage") -> Generator:
        env = cache.env
        while True:
            if cache.store.dirty_count == 0:
                yield cache.dirty_event()
            dirty = cache.store.dirty_lines_lru()
            if dirty:
                yield from cache.flush_lines(dirty[: self.flush_max])
            yield env.timeout(self.wake_ns)


def make_cleaning(config: "CacheConfig"):
    """Cleaning policy instance from a config."""
    if config.cleaning == "alru":
        return AlruCleaning(config.alru_staleness_ns, config.alru_wake_ns, config.alru_flush_max)
    if config.cleaning == "acp":
        return AcpCleaning(config.acp_wake_ns, config.acp_flush_max)
    return NopCleaning()
