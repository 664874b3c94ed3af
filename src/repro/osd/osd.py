"""The OSD daemon: serves object I/O, replication sub-ops, and EC shards.

Each OSD owns one storage device and object store, has a bounded worker
pool (``op_threads``), and talks to peers through the fabric.  Write
paths implement both topologies the paper compares:

* **primary fan-out** (software Ceph): the client sends one op to the
  primary, which applies locally and forwards replica sub-ops — two
  network hops for replicas;
* **direct** ops (DeLiBA): the client(-side FPGA) addresses every
  replica/shard itself, so each copy takes one hop.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..crush import CRUSH_ITEM_NONE
from ..ec import ReedSolomon
from ..errors import StorageError
from ..obs.context import NULL_SPAN, wrap_span
from ..sim import Environment, Resource
from ..units import us
from .fabric import Fabric, Messenger, fan_out
from .objects import ObjectStore
from .ops import OpKind, OsdOp, OsdReply
from .osdmap import OSDMap, PoolType
from .qos import derive
from .storage import StorageDevice


def default_ec_encode_ns(k: int, m: int, nbytes: int) -> int:
    """Software Reed-Solomon encode time on an OSD core.

    Fixed cost from op setup plus a per-parity-byte term; calibrated so a
    4 kB object at k=4, m=2 costs a few microseconds, consistent with the
    per-kernel software profile in paper Table I scaling down from its
    65 us full-object figure.
    """
    return us(3) + int(nbytes * m / max(1, k) * 0.9)


def default_ec_decode_ns(k: int, m: int, nbytes: int) -> int:
    """Software RS decode (matrix inversion amortized, axpy dominated)."""
    return us(4) + int(nbytes * 1.1)


@dataclass
class OsdConfig:
    """Tunable costs of OSD request processing."""

    #: CPU time per op before touching the device (PG lock, attrs, journal).
    op_cost_ns: int = us(5)
    #: Worker threads per OSD.
    op_threads: int = 4
    #: Extra CPU on replicated-write primaries (building sub-ops).
    rep_fanout_cost_ns: int = us(2)
    ec_encode_ns: Callable[[int, int, int], int] = default_ec_encode_ns
    ec_decode_ns: Callable[[int, int, int], int] = default_ec_decode_ns
    #: Deadline a primary gives its replica/shard sub-ops; None = wait
    #: forever (fault-free default — crashed peers still fail fast via
    #: connection resets, only silent message loss needs this).
    subop_timeout_ns: Optional[int] = None


#: Completed-write replies remembered per OSD for idempotent replay.
REPLY_CACHE_SIZE = 512

#: Op kinds whose replay must not re-apply (reads are naturally
#: idempotent and their data may legitimately change between calls).
_MUTATING_KINDS = frozenset(
    {
        OpKind.WRITE,
        OpKind.WRITE_DIRECT,
        OpKind.REP_WRITE,
        OpKind.SHARD_WRITE,
        OpKind.EC_WRITE,
        OpKind.DELETE,
    }
)

#: Client mutations that must wait behind recovery of their object: a
#: write applied over a missing base could be clobbered (or clobber)
#: when the backfill push lands, so the PG gate holds them until the
#: object is recovered on this OSD.  Recovery's own PUSH/DELETE ops are
#: exempt — they *are* the recovery traffic the gate waits for.
_GATED_KINDS = frozenset(
    {
        OpKind.WRITE,
        OpKind.WRITE_DIRECT,
        OpKind.REP_WRITE,
        OpKind.SHARD_WRITE,
        OpKind.EC_WRITE,
    }
)

#: Sub-op kinds a primary fans out while holding its own worker slot.
#: Under QoS these take the scheduler's express lane when they arrive
#: from a peer OSD: the parent already passed (and was charged at) the
#: primary's admission gate, and competing for primary slots could
#: deadlock the pools once they fill with mutually-waiting primaries.
_SUBOP_KINDS = frozenset({OpKind.REP_WRITE, OpKind.SHARD_WRITE, OpKind.SHARD_READ})


def shard_object_name(object_name: str, shard: int) -> str:
    """Object-store key of one EC shard."""
    return f"{object_name}.s{shard}"


def base_object_name(store_key: str) -> str:
    """Logical object name of a store key (strips an EC-shard suffix)."""
    head, sep, tail = store_key.rpartition(".s")
    if sep and tail.isdigit():
        return head
    return store_key


class OsdDaemon(Messenger):
    """One OSD process."""

    #: Op kind -> name of the method that serves it.
    _HANDLERS = {
        OpKind.READ: "_do_read",
        OpKind.WRITE: "_do_primary_write",
        OpKind.WRITE_DIRECT: "_do_direct_write",
        OpKind.REP_WRITE: "_do_direct_write",
        OpKind.SHARD_WRITE: "_do_shard_write",
        OpKind.SHARD_READ: "_do_shard_read",
        OpKind.EC_WRITE: "_do_ec_primary_write",
        OpKind.EC_READ: "_do_ec_primary_read",
        OpKind.DELETE: "_do_delete",
        OpKind.PING: "_do_ping",
        OpKind.PG_LIST: "_do_pg_list",
        OpKind.PULL: "_do_pull",
        OpKind.PUSH: "_do_push",
    }

    def __init__(
        self,
        env: Environment,
        osd_id: int,
        fabric: Fabric,
        device: StorageDevice,
        osdmap: OSDMap,
        config: Optional[OsdConfig] = None,
    ):
        super().__init__(env, fabric, f"osd.{osd_id}")
        self.osd_id = osd_id
        self.device = device
        self.osdmap = osdmap
        self.config = config or OsdConfig()
        self.store = ObjectStore()
        self.cpu = Resource(env, capacity=self.config.op_threads, name=f"osd.{osd_id}.workers")
        self.ops_served = 0
        #: store key -> version of the last applied mutation (pglog).  A
        #: version is the op_id of the logical client write (replica and
        #: shard sub-ops inherit the parent's id), so recovery pushes can
        #: be ordered against writes made while they were in flight.
        self.versions: dict[str, int] = {}
        #: Set by ``Cluster.enable_recovery``; gates client mutations on
        #: objects still missing locally (see ``repro.osd.recovery``).
        self.recovery_ledger = None
        #: Set by ``Cluster.enable_qos``: the dmClock admission gate in
        #: front of the worker pool (see ``repro.osd.qos``).  None keeps
        #: the request path byte-identical to the unscheduled seed.
        self.qos = None
        #: True while this OSD is an empty, freshly revived member being
        #: backfilled: absent objects answer "missing during backfill"
        #: (client fails over) instead of "no such object" (which clients
        #: read as authoritative zeros — silent stale/lost data).
        self.backfill_reserve = False
        #: Set by ``Cluster`` when a :class:`~repro.osd.wal.DurabilityConfig`
        #: is configured: the transactional commit pipeline.  None keeps
        #: the write path byte-identical to the volatile seed.
        self.wal = None
        self._codecs: dict[int, ReedSolomon] = {}
        #: op_id -> reply for completed mutations (pglog dup detection):
        #: a replayed or duplicated write resends the recorded ack
        #: instead of re-applying.
        self._reply_cache: OrderedDict[int, OsdReply] = OrderedDict()
        self.replays_absorbed = 0
        metrics = env.metrics
        self._m_ops = metrics.counter(f"osd.{osd_id}.ops")
        self._m_op_latency = metrics.latency(f"osd.{osd_id}.op_latency")
        self._m_replays = metrics.counter("osd.replays_absorbed")

    def stop(self, status=None) -> None:
        """Crash the OSD; also kill the WAL's background applies.

        ``status`` (a :class:`~repro.status.BlkStatus`) selects what
        peers with in-flight ops observe — TRANSPORT for a process
        crash, AGAIN for a power loss.
        """
        if status is None:
            super().stop()
        else:
            super().stop(status)
        if self.wal is not None:
            self.wal.halt()

    def restart_from_wal(self):
        """Durable restart: replay the WAL instead of reviving empty.

        The replayed store keeps everything acked before the crash, so
        recovery only has to ship the delta written during the outage —
        no backfill reserve, no full re-push.  Returns the
        :class:`~repro.osd.wal.WalReplayStats`.
        """
        if self.wal is None:
            raise StorageError(f"osd.{self.osd_id} has no WAL to restart from")
        stats = self.wal.recover()
        self._reply_cache.clear()
        self.backfill_reserve = False
        return stats

    def reset_for_backfill(self) -> None:
        """Wipe state for a revived-empty rejoin (the pre-failure store,
        version log, and reply cache are stale) and enter backfill
        reserve: absent reads answer "missing during backfill" until the
        recovery path repopulates this OSD."""
        self.store.clear()
        self.versions.clear()
        self._reply_cache.clear()
        self.backfill_reserve = True

    def codec_for(self, pool_id: int) -> ReedSolomon:
        """The RS codec for an EC pool (cached)."""
        if pool_id not in self._codecs:
            pool = self.osdmap.pool(pool_id)
            if pool.pool_type != PoolType.ERASURE:
                raise StorageError(f"pool {pool_id} is not erasure-coded")
            self._codecs[pool_id] = ReedSolomon(pool.k, pool.m)
        return self._codecs[pool_id]

    # -- local apply helpers -------------------------------------------------

    def _apply_write(
        self,
        name: str,
        offset: int,
        data: bytes,
        sequential: bool,
        version: int = 0,
        span=NULL_SPAN,
        whole: bool = False,
    ) -> Generator:
        if self.wal is not None:
            # Transactional path: durable (journaled + barriered) before
            # return; the pipeline updates the visible store itself.
            yield from self.wal.write(
                name, offset, data, sequential, version, span=span, whole=whole
            )
            return
        yield from self.device.write(name, offset, len(data), sequential)
        self.store.write(name, offset, data)

    def _apply_read(self, name: str, offset: int, length: int) -> Generator:
        yield from self.device.read(name, offset, length)
        return self.store.read(name, offset, length)

    def _missing_locally(self, pool_id: int, key: str) -> bool:
        """True when ``key``'s absence means "not yet backfilled" rather
        than "never existed" — callers must fail over, not serve zeros."""
        if self.backfill_reserve:
            return True
        ledger = self.recovery_ledger
        return ledger is not None and ledger.is_missing(self.osd_id, pool_id, key)

    def _gate_key(self, op: OsdOp) -> Optional[str]:
        """Store key a client mutation must wait on before applying."""
        if op.kind is OpKind.SHARD_WRITE:
            return shard_object_name(op.object_name, op.shard)
        if op.kind is OpKind.EC_WRITE:
            # The primary's own shard; peer shards gate at each peer.
            if self.osd_id in op.acting:
                return shard_object_name(op.object_name, op.acting.index(self.osd_id))
            return None
        return op.object_name

    # -- request handling ----------------------------------------------------------

    def on_request(self, op: OsdOp, src: str) -> Generator:
        """Dispatch one op under the worker pool."""
        t0 = self.env.now
        leg = op.obs_span
        cached = self._reply_cache.get(op.op_id)
        if cached is not None:
            # Idempotent replay (client retry or duplicated message):
            # the mutation already applied — resend the recorded ack.
            self.replays_absorbed += 1
            self._m_replays.add()
            yield self.env.timeout(self.config.op_cost_ns)
            leg.record("osd.replay", "service", t0, self.env.now, osd=self.osd_id)
            yield from self.reply_to(src, cached)
            return
        if self.recovery_ledger is not None and op.kind in _GATED_KINDS:
            # Gate BEFORE taking a worker slot: the recovery push this
            # op waits for needs a slot on this same OSD, so holding one
            # here would deadlock the worker pool.
            key = self._gate_key(op)
            waited = False
            if key is not None:
                while (gate := self.recovery_ledger.write_gate(self.osd_id, op.pool_id, key)) is not None:
                    waited = True
                    yield gate
            if waited:
                leg.record("osd.recovery-gate", "queue", t0, self.env.now, osd=self.osd_id)
        qos_phase = 0
        express = (
            self.qos is not None
            and op.kind in _SUBOP_KINDS
            and src.startswith("osd.")
        )
        if express:
            # Peer sub-op: arbitrated at its primary's gate; serve from
            # the express lane so it never waits behind a primary that
            # is itself waiting on sub-ops (see _SUBOP_KINDS).
            req = yield from self.qos.sub_lane.acquire()
            pool = self.qos.sub_lane
        else:
            if self.qos is not None:
                # dmClock admission: the scheduler (not the FIFO resource
                # queue) decides service order; once dispatched, at most
                # op_threads ops are outstanding so the slot claim below
                # never waits.
                qos_phase = yield from self.qos.admit(op)
            req = yield from self.cpu.acquire()
            pool = self.cpu
        # Worker-pool wait vs. actual service, split explicitly so the
        # critical path can tell saturation from slow handlers.
        meta = {"osd": self.osd_id}
        if op.qos is not None:
            meta["tenant"] = op.qos.tenant
            meta["qos_class"] = op.qos.svc
        leg.record("osd.queue", "queue", t0, self.env.now, **meta)
        svc = op.obs_service = leg.child("osd.service", "service", **meta)
        try:
            yield self.env.timeout(self.config.op_cost_ns)
            handler = self._HANDLERS.get(op.kind)
            if handler is None:
                reply = OsdReply(op.op_id, False, error=f"unknown op kind {op.kind}")
            else:
                try:
                    reply = yield from getattr(self, handler)(op)
                except StorageError as exc:
                    reply = OsdReply(op.op_id, False, error=str(exc))
        finally:
            pool.release(req)
            if self.qos is not None and not express:
                self.qos.release()
        reply.epoch = self.osdmap.epoch
        reply.qos_phase = qos_phase
        if reply.ok and op.kind in _MUTATING_KINDS:
            self._reply_cache[op.op_id] = reply
            while len(self._reply_cache) > REPLY_CACHE_SIZE:
                self._reply_cache.popitem(last=False)
        self.ops_served += 1
        self._m_ops.add()
        self._m_op_latency.record(self.env.now - t0)
        self.env.health.observe_osd(
            self.osd_id,
            # An unknown kind (not an OpKind) reports as itself.
            getattr(op.kind, "value", op.kind),
            op.qos.tenant if op.qos is not None else "",
            self.env.now - t0,
            reply.ok,
        )
        svc.finish(ok=reply.ok)
        yield from self.reply_to(src, reply)

    def _do_read(self, op: OsdOp) -> Generator:
        if op.object_name not in self.store and self._missing_locally(
            op.pool_id, op.object_name
        ):
            raise StorageError(f"object {op.object_name!r} missing during backfill")
        data = yield from self._apply_read(op.object_name, op.offset, op.length)
        return OsdReply(op.op_id, True, data=data)

    def _do_direct_write(self, op: OsdOp) -> Generator:
        if op.data is None:
            raise StorageError(f"write op {op.op_id} carries no data")
        yield from self._apply_write(
            op.object_name,
            op.offset,
            op.data,
            op.sequential,
            version=op.version or op.op_id,
            span=op.obs_service,
        )
        self.versions[op.object_name] = op.version or op.op_id
        return OsdReply(op.op_id, True)

    def _do_primary_write(self, op: OsdOp) -> Generator:
        """Replicated write via primary: local apply + parallel sub-ops."""
        if op.data is None:
            raise StorageError(f"write op {op.op_id} carries no data")
        yield self.env.timeout(self.config.rep_fanout_cost_ns)
        svc = op.obs_service
        legs = [
            (
                peer,
                OsdOp(
                    OpKind.REP_WRITE, op.pool_id, op.object_name, op.offset, len(op.data),
                    data=op.data, sequential=op.sequential, epoch=op.epoch, version=op.op_id,
                    qos=derive(op.qos),
                ),
                svc.child(f"osd.{peer}", "rpc"),
            )
            for peer in op.acting
            if peer != self.osd_id
        ]
        local = wrap_span(
            svc.child("local-apply", "service"),
            self._apply_write(op.object_name, op.offset, op.data, op.sequential, version=op.op_id),
        )
        replies = yield from fan_out(self, legs, self.config.subop_timeout_ns, local)
        self.versions[op.object_name] = op.op_id
        for rep in replies[:-1]:
            if not rep.ok:
                return OsdReply(op.op_id, False, error=f"replica failed: {rep.error}")
        return OsdReply(op.op_id, True)

    def _do_shard_write(self, op: OsdOp) -> Generator:
        if op.data is None or op.shard < 0:
            raise StorageError(f"shard write {op.op_id} missing data or shard index")
        name = shard_object_name(op.object_name, op.shard)
        yield from self._apply_write(
            name,
            op.offset,
            op.data,
            op.sequential,
            version=op.version or op.op_id,
            span=op.obs_service,
        )
        self.versions[name] = op.version or op.op_id
        return OsdReply(op.op_id, True)

    def _do_shard_read(self, op: OsdOp) -> Generator:
        if op.shard < 0:
            raise StorageError(f"shard read {op.op_id} missing shard index")
        name = shard_object_name(op.object_name, op.shard)
        if name not in self.store and self._missing_locally(op.pool_id, name):
            raise StorageError(f"object {name!r} missing during backfill")
        data = yield from self._apply_read(name, op.offset, op.length)
        return OsdReply(op.op_id, True, data=data)

    def _do_ec_primary_write(self, op: OsdOp) -> Generator:
        """EC write via primary: encode on the OSD CPU, fan out shards."""
        if op.data is None:
            raise StorageError(f"ec write {op.op_id} carries no data")
        pool = self.osdmap.pool(op.pool_id)
        codec = self.codec_for(op.pool_id)
        svc = op.obs_service
        t_enc = self.env.now
        yield self.env.timeout(self.config.ec_encode_ns(pool.k, pool.m, len(op.data)))
        svc.record("ec-encode", "compute", t_enc, self.env.now, k=pool.k, m=pool.m)
        shards = codec.encode(op.data)
        legs = []
        local = local_shard = None
        for rank, target in enumerate(op.acting):
            if target == CRUSH_ITEM_NONE:
                continue
            if target == self.osd_id:
                local_shard = rank
                continue
            sub = OsdOp(
                OpKind.SHARD_WRITE, op.pool_id, op.object_name, 0, len(shards[rank]),
                data=shards[rank], shard=rank, sequential=op.sequential, epoch=op.epoch,
                version=op.op_id, qos=derive(op.qos),
            )
            legs.append((target, sub, svc.child(f"osd.{target}", "rpc", shard=rank)))
        if local_shard is not None:
            name = shard_object_name(op.object_name, local_shard)
            local = wrap_span(
                svc.child("local-shard", "service", shard=local_shard),
                self._apply_write(name, 0, shards[local_shard], op.sequential, version=op.op_id),
            )
        replies = yield from fan_out(self, legs, self.config.subop_timeout_ns, local)
        if local_shard is not None:
            self.versions[name] = op.op_id
        for reply in replies[: len(legs)]:
            if not reply.ok:
                return OsdReply(op.op_id, False, error=f"shard failed: {reply.error}")
        return OsdReply(op.op_id, True)

    def _do_ec_primary_read(self, op: OsdOp) -> Generator:
        """EC read via primary: gather k shards (local fast path +
        degraded retry), decode, return bytes."""
        from .client import gather_shards  # local import avoids a cycle

        pool = self.osdmap.pool(op.pool_id)
        codec = self.codec_for(op.pool_id)
        shard_len = codec.shard_size(op.length)
        preloaded = {}
        remote_targets = []
        for rank, target in enumerate(op.acting):
            if target == self.osd_id:
                key = shard_object_name(op.object_name, rank)
                if key in self.store:
                    preloaded[rank] = yield from self._apply_read(key, 0, shard_len)
            elif target != CRUSH_ITEM_NONE:
                remote_targets.append((rank, target))
        svc = op.obs_service
        try:
            shards, _degraded = yield from gather_shards(
                self, pool, op.object_name, remote_targets, shard_len, op.epoch, preloaded,
                timeout_ns=self.config.subop_timeout_ns, ctx=svc, qos=op.qos,
            )
        except StorageError as exc:
            return OsdReply(op.op_id, False, error=str(exc))
        t_dec = self.env.now
        yield self.env.timeout(self.config.ec_decode_ns(pool.k, pool.m, op.length))
        svc.record("ec-decode", "compute", t_dec, self.env.now, k=pool.k, m=pool.m)
        data = codec.decode(shards, op.length)
        return OsdReply(op.op_id, True, data=data)

    def _do_ping(self, op: OsdOp) -> Generator:
        yield self.env.timeout(0)
        return OsdReply(op.op_id, True)

    def _do_delete(self, op: OsdOp) -> Generator:
        if self.wal is not None:
            # Journal first so the tombstone (or trim) survives a crash;
            # the visible store/version updates below stay unchanged.
            yield from self.wal.delete(
                op.object_name, op.version if op.version < 0 else op.version or op.op_id
            )
        if op.version < 0:
            # Recovery trim of a stale copy: erase the version entry so
            # no tombstone blocks a future backfill if this OSD rejoins
            # the acting set.
            self.versions.pop(op.object_name, None)
        else:
            # Tombstone: a backfill push racing this delete must lose.
            self.versions[op.object_name] = op.version or op.op_id
            if op.object_name not in self.store and self._missing_locally(
                op.pool_id, op.object_name
            ):
                # Deleting an object not yet backfilled here: the
                # tombstone alone suffices — the push will be discarded.
                yield self.env.timeout(0)
                return OsdReply(op.op_id, True)
        self.store.delete(op.object_name)
        yield self.env.timeout(0)
        return OsdReply(op.op_id, True)

    # -- recovery ops (repro.osd.recovery) -----------------------------------

    #: CPU per store key examined while building a PG listing.
    PG_LIST_SCAN_NS = 100

    def _do_pg_list(self, op: OsdOp) -> Generator:
        """Peering: list this OSD's store keys that hash into one PG,
        with their versions and sizes (the authoritative-object census).
        Only the recovery ledger sends PG_LIST; its memo hashes each key
        once per PG count, not once per listing."""
        if op.pg < 0:
            raise StorageError(f"pg_list op {op.op_id} missing pg index")
        pg_num = self.osdmap.pool(op.pool_id).pg_num
        pg_index = self.recovery_ledger.pg_index
        listing: dict[str, tuple[int, int]] = {}
        names = self.store.object_names()
        for key in names:
            if pg_index(pg_num, key) == op.pg:
                listing[key] = (self.versions.get(key, 0), self.store.object_size(key))
        yield self.env.timeout(self.PG_LIST_SCAN_NS * max(1, len(names)))
        return OsdReply(op.op_id, True, listing=listing)

    def _do_pull(self, op: OsdOp) -> Generator:
        """Recovery read: whole store key (object or shard) + version.
        Goes through the device, so pulls contend with client reads.
        The reply carries the key's extent image (see
        :meth:`ObjectStore.image`), not a dense copy; its wire size is
        the logical size the device read was charged for."""
        name = op.object_name
        if name not in self.store:
            raise StorageError(f"no such object {name!r}")
        size = self.store.object_size(name)
        yield from self.device.read(name, 0, size)
        image = self.store.image(name)
        if len(image) != size:
            # Resized while the device read ran: ship the bytes charged.
            image = self.store.read(name, 0, size)
        return OsdReply(op.op_id, True, data=image, version=self.versions.get(name, 0))

    def _do_push(self, op: OsdOp) -> Generator:
        """Recovery write: version-guarded whole-object install.  A push
        carrying data pulled at version V applies only if this OSD has
        seen nothing newer — a client write (or delete) that landed here
        during the pull/push window wins, never the stale backfill.  An
        extent image installs with the source's layout, sharing its
        payloads; the WAL journals it flattened."""
        if op.data is None:
            raise StorageError(f"push op {op.op_id} carries no data")
        name = op.object_name
        if self.versions.get(name, 0) > op.version:
            yield self.env.timeout(0)
            return OsdReply(op.op_id, True, stale=True)
        if name in self.store:
            # Whole-object install: drop any shorter/partial base first.
            self.store.delete(name)
        yield from self._apply_write(name, 0, op.data, True, version=op.version, whole=True)
        self.versions[name] = op.version
        return OsdReply(op.op_id, True)
