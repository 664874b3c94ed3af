"""Object -> placement-group -> OSD mapping (the client-side hot path).

This is the computation the DeLiBA-K FPGA executes in the datapath: hash
the object name to a placement group (PG) with Ceph's *stable mod*, then
run the pool's CRUSH rule on the PG seed to obtain the acting set of
OSDs.  :class:`PlacementEngine` caches PG mappings per map epoch, since a
PG's acting set only changes when the map changes.  On its first miss
for a pool in an epoch it also computes the rule's round-0 descents for
every PG of the pool in one batched pass (like Ceph's ``OSDMapMapping``
precomputing a map's PG table), so later misses find their descents
memoized.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import CrushError
from . import batch
from .hashing import hash32_2, str_hash
from .map import CrushMap
from .rules import CrushRule, Mapper
from .types import CRUSH_ITEM_NONE


def stable_mod(x: int, b: int, bmask: int) -> int:
    """Ceph's ``ceph_stable_mod``: a modulo that is stable as ``b`` grows.

    When ``b`` is not a power of two, values map so that growing the PG
    count splits each PG in two instead of reshuffling everything.
    """
    if (x & bmask) < b:
        return x & bmask
    return x & (bmask >> 1)


def pg_mask(pg_num: int) -> int:
    """Smallest all-ones mask covering ``pg_num`` (Ceph's pgp_num_mask)."""
    if pg_num < 1:
        raise CrushError(f"pg_num must be >= 1, got {pg_num}")
    return (1 << (pg_num - 1).bit_length()) - 1 if pg_num > 1 else 0


def object_to_pg(object_name: str, pg_num: int) -> int:
    """Placement group index for an object name."""
    return stable_mod(str_hash(object_name), pg_num, pg_mask(pg_num))


def pg_seed(pool_id: int, pg_id: int) -> int:
    """The CRUSH input x for a placement group (pool-salted)."""
    return hash32_2(pg_id, pool_id)


def pg_seeds(pool_id: int, pg_num: int) -> np.ndarray:
    """``pg_seed(pool_id, pg)`` for every PG of a pool, as one array."""
    return batch.hash32_2(np.arange(pg_num, dtype=np.int64), np.int64(pool_id))


class PlacementEngine:
    """Caches rule executions per (pool, pg, size) for one map epoch."""

    def __init__(self, cmap: CrushMap, total_tries: Optional[int] = None):
        self.map = cmap
        self.mapper = Mapper(cmap) if total_tries is None else Mapper(cmap, total_tries)
        self.epoch = 1
        self._cache: dict[tuple[int, int, int, int], list[int]] = {}
        #: (pool, rule, size) whose descents the mapper memoized this epoch.
        self._filled: set[tuple[int, int, int]] = set()
        #: True when the last pg_to_osds call ran CRUSH (cache miss).
        self.last_was_miss = False
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        """Bump the epoch after any map mutation (device out/in/reweight)."""
        self.epoch += 1
        self._cache.clear()
        self._filled.clear()
        self.mapper.clear_memo()

    def pg_to_osds(
        self, pool_id: int, pg_id: int, pg_num: int, rule: CrushRule, size: int
    ) -> list[int]:
        """Acting set for a PG: up to ``size`` OSD ids (holes for indep rules).

        ``pg_num`` is the pool's PG count: the first miss for a (pool,
        rule, size) in an epoch memoizes the round-0 descents of all its
        PGs in one batched pass.
        """
        key = (pool_id, pg_id, rule.rule_id, size)
        hit = self._cache.get(key)
        if hit is not None:
            self.last_was_miss = False
            self.hits += 1
            return hit
        filled = (pool_id, rule.rule_id, size)
        if filled not in self._filled:
            self._filled.add(filled)
            self.mapper.fill_memo(rule, pg_seeds(pool_id, pg_num), size)
        osds = self.mapper.do_rule(rule, pg_seed(pool_id, pg_id), size)
        self._cache[key] = osds
        self.last_was_miss = True
        self.misses += 1
        return osds

    def object_to_osds(
        self, pool_id: int, object_name: str, pg_num: int, rule: CrushRule, size: int
    ) -> tuple[int, list[int]]:
        """Full path: object name -> (pg_id, acting set)."""
        pg_id = object_to_pg(object_name, pg_num)
        return pg_id, self.pg_to_osds(pool_id, pg_id, pg_num, rule, size)

    @staticmethod
    def primary_of(acting: list[int]) -> Optional[int]:
        """First non-hole OSD in the acting set, or None when empty."""
        for osd in acting:
            if osd != CRUSH_ITEM_NONE:
                return osd
        return None
