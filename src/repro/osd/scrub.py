"""Scrubbing: background integrity verification of replicas and EC shards.

Ceph periodically *scrubs* placement groups — comparing object metadata
(light scrub) or full content checksums (deep scrub) across replicas —
and repairs inconsistencies from a healthy copy.  The simulated cluster
gets the same machinery, which the failure-injection tests use to prove
that corrupt replicas are detected and healed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..crush import CRUSH_ITEM_NONE, PlacementEngine
from ..errors import DecodeError
from ..sim import Environment
from .monitor import Monitor
from .ops import OpKind, OsdOp
from .osd import OsdDaemon, shard_object_name
from .qos import CLASS_SCRUB, QosTag
from .osdmap import Pool, PoolType


@dataclass
class Inconsistency:
    """One detected divergence."""

    object_name: str
    kind: str  # "size-mismatch", "checksum-mismatch", "missing-copy"
    details: str = ""


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    pool_name: str
    deep: bool
    objects_examined: int = 0
    inconsistencies: list[Inconsistency] = field(default_factory=list)
    repaired: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing diverged."""
        return not self.inconsistencies


class Scrubber:
    """Runs scrub passes over a pool using the live daemons."""

    def __init__(self, env: Environment, monitor: Monitor):
        self.env = env
        self.monitor = monitor

    def _live_daemons(self) -> dict[int, OsdDaemon]:
        osdmap = self.monitor.osdmap
        return {o: self.monitor.daemons[o] for o in osdmap.up_osds()}

    def _object_names(self, pool: Pool, live: dict[int, OsdDaemon]) -> list[str]:
        names: set[str] = set()
        for daemon in live.values():
            for key in daemon.store.object_names():
                base = key.split(".s")[0] if pool.pool_type == PoolType.ERASURE else key
                names.add(base)
        return sorted(names)

    def scrub(self, pool: Pool, deep: bool = False, repair: bool = False) -> Generator:
        """Process: verify every object in ``pool``; returns a report.

        Deep scrubs read full object content through the device model
        (charging real media time); light scrubs compare sizes only.
        ``repair=True`` heals divergent copies from the majority (or
        reconstructs EC shards through the codec).
        """
        report = ScrubReport(pool.name, deep)
        live = self._live_daemons()
        helper = next(iter(live.values()))
        placement = PlacementEngine(self.monitor.osdmap.crush)
        for name in self._object_names(pool, live):
            report.objects_examined += 1
            acting = placement.object_to_osds(
                pool.pool_id, name, pool.pg_num, pool.rule, pool.size
            )[1]
            if pool.pool_type == PoolType.REPLICATED:
                self._check_replication(pool, name, acting, live, report)
                yield from self._scrub_replicated(pool, name, live, deep, repair, report, helper)
            else:
                self._check_ec_placement(pool, name, acting, live, report)
                yield from self._scrub_ec(pool, name, live, deep, repair, report, helper)
        return report

    def _check_ec_placement(self, pool, name, acting, live, report) -> None:
        """Each live acting rank must hold its shard."""
        absent = [
            (rank, osd)
            for rank, osd in enumerate(acting)
            if osd != CRUSH_ITEM_NONE
            and osd in live
            and shard_object_name(name, rank) not in live[osd].store
        ]
        if absent:
            report.inconsistencies.append(
                Inconsistency(
                    name, "missing-copy", f"shards absent on acting (rank, osd) {absent}"
                )
            )

    def _check_replication(self, pool, name, acting, live, report) -> None:
        """Acting-aware redundancy check: every live acting member must
        hold its copy (a hole in the acting set itself is also reported
        — the pool is running below its replica target)."""
        expected = [o for o in acting if o != CRUSH_ITEM_NONE and o in live]
        absent = [o for o in expected if name not in live[o].store]
        short = pool.size - len(expected)
        if absent or short > 0:
            details = []
            if absent:
                details.append(f"absent on acting osds {absent}")
            if short > 0:
                details.append(f"{short} acting slots unfillable")
            report.inconsistencies.append(
                Inconsistency(name, "missing-copy", "; ".join(details))
            )

    # -- replicated -----------------------------------------------------------

    def _scrub_replicated(self, pool, name, live, deep, repair, report, helper) -> Generator:
        holders = {o: d for o, d in live.items() if name in d.store}
        if not holders:
            return
        digests: dict[int, str] = {}
        sizes: dict[int, int] = {}
        for osd_id, daemon in holders.items():
            size = daemon.store.object_size(name)
            sizes[osd_id] = size
            if deep:
                yield from daemon.device.read(name, 0, max(1, size))
                digests[osd_id] = daemon.store.content_digest(name)
        if len(set(sizes.values())) > 1:
            report.inconsistencies.append(
                Inconsistency(name, "size-mismatch", f"sizes {sizes}")
            )
        if deep and len(set(digests.values())) > 1:
            report.inconsistencies.append(
                Inconsistency(name, "checksum-mismatch", f"across osds {sorted(digests)}")
            )
            if repair:
                yield from self._repair_replicated(name, digests, holders, helper)
                report.repaired += 1

    def _repair_replicated(self, name, digests, holders, helper) -> Generator:
        # BlueStore-style: each copy self-verifies against its stored
        # checksum, so the rotted copy is identified even in 2-replica
        # pools where a majority vote would tie.  Majority vote is the
        # fallback when every copy self-verifies (e.g. a stale replica).
        self_ok = {o for o, d in holders.items() if d.store.verify(name)}
        if self_ok and len(self_ok) < len(digests):
            source = next(iter(self_ok))
            bad = [o for o in digests if o not in self_ok]
        else:
            tally: dict[str, list[int]] = {}
            for osd_id, digest in digests.items():
                tally.setdefault(digest, []).append(osd_id)
            good_digest, good_osds = max(tally.items(), key=lambda kv: len(kv[1]))
            if len(good_osds) == len(digests):
                return
            source = good_osds[0]
            bad = [o for o, digest in digests.items() if digest != good_digest]
        store = holders[source].store
        good = store.read(name, 0, store.object_size(name))
        for osd_id in bad:
            op = OsdOp(
                OpKind.WRITE_DIRECT, 0, name, 0, len(good), data=good,
                qos=QosTag(svc=CLASS_SCRUB),
            )
            yield from helper.call(f"osd.{osd_id}", op)

    # -- erasure coded -----------------------------------------------------------

    def _scrub_ec(self, pool, name, live, deep, repair, report, helper) -> Generator:
        codec = helper.codec_for(pool.pool_id)
        shards: dict[int, bytes] = {}
        shard_osd: dict[int, int] = {}
        for rank in range(pool.size):
            key = shard_object_name(name, rank)
            for osd_id, daemon in live.items():
                if key in daemon.store:
                    size = daemon.store.object_size(key)
                    if deep:
                        yield from daemon.device.read(key, 0, max(1, size))
                    shards[rank] = daemon.store.read(key, 0, size)
                    shard_osd[rank] = osd_id
                    break
        if len(shards) < pool.k:
            report.inconsistencies.append(
                Inconsistency(name, "missing-copy", f"only shards {sorted(shards)} present")
            )
            return
        if not deep:
            return
        # First line of defence: BlueStore-style per-shard checksums.
        self_bad = [
            rank
            for rank, osd_id in shard_osd.items()
            if not live[osd_id].store.verify(shard_object_name(name, rank))
        ]
        # Second: algebraic cross-check — re-derive each shard from the
        # others; a corrupt shard disagrees with the reconstruction.
        slots = [shards.get(r) for r in range(pool.size)]
        bad: list[int] = list(self_bad)
        for rank, data in shards.items():
            if rank in bad:
                continue
            others = list(slots)
            others[rank] = None
            if sum(1 for s in others if s is not None) < pool.k:
                continue
            try:
                expected = codec.reconstruct_shard(others, rank)
            except DecodeError:
                continue
            if expected != data:
                bad.append(rank)
        # A single corrupt shard makes every cross-check disagree; the
        # self-checksum names the culprit directly, else exclusion search.
        if bad:
            culprit = self_bad[0] if self_bad else self._find_culprit(codec, pool, slots, bad)
            report.inconsistencies.append(
                Inconsistency(name, "checksum-mismatch", f"ec shard {culprit} corrupt")
            )
            if repair and culprit is not None:
                others = list(slots)
                others[culprit] = None
                fixed = codec.reconstruct_shard(others, culprit)
                op = OsdOp(
                    OpKind.SHARD_WRITE, pool.pool_id, name, 0, len(fixed),
                    data=fixed, shard=culprit, qos=QosTag(svc=CLASS_SCRUB),
                )
                yield from helper.call(f"osd.{shard_osd[culprit]}", op)
                report.repaired += 1

    @staticmethod
    def _find_culprit(codec, pool, slots, suspects) -> Optional[int]:
        for rank in suspects:
            others = list(slots)
            others[rank] = None
            if sum(1 for s in others if s is not None) < pool.k:
                continue
            rebuilt = codec.reconstruct_shard(others, rank)
            # Excluding the true culprit, the rest are self-consistent:
            # every other shard re-derives correctly.
            trial = list(others)
            trial[rank] = rebuilt
            consistent = True
            for other_rank, data in enumerate(trial):
                if data is None or other_rank == rank:
                    continue
                probe = list(trial)
                probe[other_rank] = None
                if sum(1 for s in probe if s is not None) < pool.k:
                    continue
                if codec.reconstruct_shard(probe, other_rank) != data:
                    consistent = False
                    break
            if consistent:
                return rank
        return suspects[0] if suspects else None
