"""RADOS client: object reads/writes against replicated and EC pools.

Implements both op topologies (see ``osd.py``): primary-mediated
(software Ceph) and direct client fan-out (the DeLiBA datapath, where
the client-side FPGA addresses every replica/shard itself).

Every op runs under an :class:`repro.osd.policy.OpPolicy`: on a failed
or timed-out reply the client re-runs CRUSH placement against the
current OSDMap epoch and retries — reads fail over primary ->
secondaries, EC reads degrade to decode-from-survivors, and writes
replay idempotently by op id (the OSD reply cache absorbs duplicates).

The client charges **no** host API or placement-compute costs — those
belong to the framework layer (``repro.deliba``), which wraps this
client with the per-generation cost model.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..crush import CRUSH_ITEM_NONE, PlacementEngine
from ..ec import ReedSolomon
from ..errors import OsdOpError, StorageError
from ..obs.context import NULL_SPAN
from ..sim import NULL_METRICS, Environment
from ..status import BlkStatus
from .fabric import Fabric, Messenger, traced_call
from .ops import OpKind, OsdOp, OsdReply
from .osdmap import OSDMap, Pool, PoolType
from .policy import DEFAULT_POLICY, OpPolicy
from .qos import QosTag


class RadosClient(Messenger):
    """One client entity issuing object I/O."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        osdmap: OSDMap,
        name: str = "client0",
        policy: Optional[OpPolicy] = None,
        rng=None,
        metrics=None,
    ):
        super().__init__(env, fabric, name)
        self.osdmap = osdmap
        self.placement = PlacementEngine(osdmap.crush)
        self._placement_epoch = osdmap.epoch
        #: Epoch-keyed placement cache: (pool_id, object) -> (acting, ops).
        #: Valid for ``_placement_epoch`` only; cleared on any map bump
        #: (including the OpPolicy failover refresh), so a stale epoch is
        #: never served.
        self._placement_cache: dict[tuple[int, str], tuple[tuple[int, ...], int]] = {}
        self._codecs: dict[int, ReedSolomon] = {}
        self.policy = policy or DEFAULT_POLICY
        #: RNG substream for backoff jitter (None = no jitter).
        self._rng = rng
        #: Default tenant identity stamped on this client's ops when the
        #: per-call ``tenant`` argument is empty (one client per VM).
        self.tenant = ""
        self.ops_completed = 0
        #: CRUSH work counter of the last placement (profiling hook).
        self.last_placement_ops = 0
        #: True when the last compute_placement actually ran CRUSH (the
        #: cost-model hook: hits pay only a hash + lookup).
        self.last_was_miss = False
        # Fault-path accounting (mirrored into the metrics registry).
        self.retries = 0
        self.timeouts = 0
        self.failovers = 0
        self.degraded_reads = 0
        #: Ops that raced an OSD power loss (retryable AGAIN status).
        self.power_loss_retries = 0
        #: Ops issued against an acting set with CRUSH holes (the pool
        #: is running below its redundancy target — degraded IO).
        self.degraded_placements = 0
        metrics = metrics or NULL_METRICS
        self._m_degraded_placements = metrics.counter("client.degraded_placements")
        self._m_retries = metrics.counter("client.retries")
        self._m_timeouts = metrics.counter("client.timeouts")
        self._m_failovers = metrics.counter("client.failovers")
        self._m_degraded = metrics.counter("client.degraded_reads")
        self._m_power_loss = metrics.counter("client.power_loss_retries")
        self._m_place_hits = metrics.counter("client.placement_cache.hits")
        self._m_place_misses = metrics.counter("client.placement_cache.misses")

    def _codec(self, pool: Pool) -> ReedSolomon:
        if pool.pool_id not in self._codecs:
            self._codecs[pool.pool_id] = ReedSolomon(pool.k, pool.m)
        return self._codecs[pool.pool_id]

    def compute_placement(self, pool: Pool, object_name: str) -> tuple[int, ...]:
        """Object -> acting set via CRUSH, memoized per map epoch.

        The per-client cache short-circuits the whole object->pg->OSD
        path (name hash + stable-mod + rule execution) for repeat
        touches of an object within one OSDMap epoch.  Any epoch bump —
        device out/in, reweight, or the OpPolicy failover refresh —
        clears it, so a cached acting set is never served across map
        changes.  The acting set is returned as a tuple: the cached
        entry used to be the mutable list shared with every caller, so
        one caller editing "its" result silently corrupted every later
        lookup of that object for the rest of the epoch.
        """
        epoch = self.osdmap.epoch
        if self._placement_epoch != epoch:
            self.placement.invalidate()
            self._placement_cache.clear()
            self._placement_epoch = epoch
        key = (pool.pool_id, object_name)
        entry = self._placement_cache.get(key)
        if entry is not None:
            acting, ops = entry
            self.last_placement_ops = ops
            self.last_was_miss = False
            self._m_place_hits.add()
            if CRUSH_ITEM_NONE in acting:
                self.degraded_placements += 1
                self._m_degraded_placements.add()
            return acting
        _pg, acting_list = self.placement.object_to_osds(
            pool.pool_id, object_name, pool.pg_num, pool.rule, pool.size
        )
        acting = tuple(acting_list)
        ops = self.placement.mapper.last_ops
        self.last_placement_ops = ops
        # A client-cache miss may still be a PG-cache hit in the engine;
        # the cost model charges the full CRUSH cost only on real misses.
        self.last_was_miss = self.placement.last_was_miss
        self._placement_cache[key] = (acting, ops)
        self._m_place_misses.add()
        if CRUSH_ITEM_NONE in acting:
            self.degraded_placements += 1
            self._m_degraded_placements.add()
        return acting

    def _qos_tag(self, tenant: str) -> Optional[QosTag]:
        """QoS identity for one logical op (None when there is nothing
        to say: no tenant named and no QoS tracker installed).  Each
        wire op derives its own copy, so retry and failover legs inherit
        the originating op's identity instead of re-entering OSD queues
        anonymously."""
        tenant = tenant or self.tenant
        if not tenant and self.qos_tracker is None:
            return None
        return QosTag(tenant)

    # -- retry bookkeeping ---------------------------------------------------------

    def _note_retry(self) -> None:
        self.retries += 1
        self._m_retries.add()

    def _note_failover(self) -> None:
        self.failovers += 1
        self._m_failovers.add()

    def _note_degraded(self) -> None:
        self.degraded_reads += 1
        self._m_degraded.add()

    def _note_failure(self, reply: OsdReply) -> None:
        if reply.status is BlkStatus.TIMEOUT:
            self.timeouts += 1
            self._m_timeouts.add()
        elif reply.status is BlkStatus.AGAIN:
            # Power loss at the target: distinctly labeled — the OSD is
            # expected back after WAL replay, unlike a TRANSPORT crash.
            self.power_loss_retries += 1
            self._m_power_loss.add()

    def _backoff(self, attempt: int) -> Generator:
        """Process: retry delay before attempt ``attempt + 1``."""
        delay = self.policy.backoff_ns(attempt, self._rng)
        if delay > 0:
            yield self.env.timeout(delay)

    @staticmethod
    def _exhausted(kind: str, object_name: str, attempts: int, last) -> OsdOpError:
        if isinstance(last, OsdReply):
            status, detail = last.status, last.error
        elif isinstance(last, StorageError):
            status, detail = getattr(last, "status", BlkStatus.IOERR), str(last)
        else:
            status, detail = BlkStatus.IOERR, "no reply"
        return OsdOpError(
            f"{kind} {object_name!r} failed after {attempts} attempts: {detail}",
            status=status,
            attempts=attempts,
        )

    # -- replicated pools ---------------------------------------------------------

    def write_replicated(
        self,
        pool: Pool,
        object_name: str,
        data: bytes,
        offset: int = 0,
        direct: bool = False,
        sequential: bool = False,
        ctx=NULL_SPAN,
        tenant: str = "",
    ) -> Generator:
        """Process: durable write of ``data`` to all replicas.

        ``direct=True`` fans out from the client (DeLiBA); otherwise the
        op routes through the primary, which forwards sub-ops.  Failed
        targets are retried under the policy against freshly computed
        placement; already-acked replicas are not re-sent, and re-sent
        ops keep their id so OSDs replay them idempotently.

        ``ctx`` is the op's causal span; each (attempt, target) pair
        becomes one ``rpc`` child, backoffs become ``wait`` children.
        """
        if pool.pool_type != PoolType.REPLICATED:
            raise StorageError(f"pool {pool.name!r} is not replicated")
        policy = self.policy
        qos = self._qos_tag(tenant)
        ops: dict[int, OsdOp] = {}  # target -> op, reused across attempts
        done: set[int] = set()
        primary_op: Optional[OsdOp] = None
        group_version = 0
        last = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._note_retry()
                t0 = self.env.now
                yield from self._backoff(attempt - 1)
                if self.env.now > t0:
                    ctx.record("backoff", "wait", t0, self.env.now, attempt=attempt)
            acting = [o for o in self.compute_placement(pool, object_name) if o != CRUSH_ITEM_NONE]
            if not acting:
                raise StorageError(f"no acting set for {object_name!r} (cluster too degraded)")
            if direct:
                targets = [t for t in acting if t not in done]
                if not targets:  # epoch change shrank acting to acked replicas
                    self.ops_completed += 1
                    return
                procs = {}
                for target in targets:
                    op = ops.get(target)
                    if op is None:
                        op = OsdOp(
                            OpKind.WRITE_DIRECT,
                            pool.pool_id,
                            object_name,
                            offset,
                            len(data),
                            data=data,
                            sequential=sequential,
                            epoch=self.osdmap.epoch,
                            qos=qos.derive() if qos is not None else None,
                        )
                        # All replicas of one logical write share one
                        # mutation version (the first sub-op's id), so
                        # recovery peering sees the copies as equals.
                        if group_version == 0:
                            group_version = op.op_id
                        op.version = group_version
                        ops[target] = op
                    else:
                        op.epoch = self.osdmap.epoch
                    leg = ctx.child(f"osd.{target}", "rpc", attempt=attempt)
                    procs[target] = self.env.process(
                        traced_call(self, f"osd.{target}", op, policy.timeout_ns, leg), name="wr"
                    )
                results = yield self.env.all_of(list(procs.values()))
                for target, proc in procs.items():
                    reply = results[proc]
                    if reply.ok:
                        done.add(target)
                    else:
                        self._note_failure(reply)
                        last = reply
                if all(t in done for t in acting):
                    self.ops_completed += 1
                    return
            else:
                primary = acting[0]
                if primary_op is None:
                    primary_op = OsdOp(
                        OpKind.WRITE,
                        pool.pool_id,
                        object_name,
                        offset,
                        len(data),
                        data=data,
                        acting=tuple(acting),
                        sequential=sequential,
                        epoch=self.osdmap.epoch,
                        qos=qos.derive() if qos is not None else None,
                    )
                else:
                    primary_op.acting = tuple(acting)
                    primary_op.epoch = self.osdmap.epoch
                leg = ctx.child(f"osd.{primary}", "rpc", attempt=attempt)
                reply = yield from traced_call(
                    self, f"osd.{primary}", primary_op, policy.timeout_ns, leg
                )
                if reply.ok:
                    self.ops_completed += 1
                    return
                self._note_failure(reply)
                last = reply
        raise self._exhausted("write", object_name, policy.max_attempts, last)

    def read_replicated(
        self, pool: Pool, object_name: str, offset: int, length: int, ctx=NULL_SPAN,
        tenant: str = "",
    ) -> Generator:
        """Process: read, failing over primary -> secondaries; returns bytes.

        Each attempt walks the acting set in order; any replica
        answering "no such object" is authoritative (unwritten extents
        of a block image read as zeros, librbd semantics).  Every
        (attempt, target) pair uses a fresh op id, so a reply that
        limps in after its timeout is dropped, never misdelivered.
        """
        if pool.pool_type != PoolType.REPLICATED:
            raise StorageError(f"pool {pool.name!r} is not replicated")
        policy = self.policy
        qos = self._qos_tag(tenant)
        last = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._note_retry()
                t0 = self.env.now
                yield from self._backoff(attempt - 1)
                if self.env.now > t0:
                    ctx.record("backoff", "wait", t0, self.env.now, attempt=attempt)
            acting = [o for o in self.compute_placement(pool, object_name) if o != CRUSH_ITEM_NONE]
            if not acting:
                raise StorageError(f"no acting set for {object_name!r}")
            for idx, target in enumerate(acting):
                # Fresh op per (attempt, target) — the failover leg still
                # derives the originating op's QoS identity, so it never
                # re-enters the secondary's queue anonymously.
                op = OsdOp(
                    OpKind.READ, pool.pool_id, object_name, offset, length,
                    epoch=self.osdmap.epoch,
                    qos=qos.derive() if qos is not None else None,
                )
                leg = ctx.child(f"osd.{target}", "rpc", attempt=attempt, failover=idx)
                reply = yield from traced_call(self, f"osd.{target}", op, policy.timeout_ns, leg)
                if reply.ok:
                    if idx > 0:
                        self._note_failover()
                    self.ops_completed += 1
                    return reply.data
                if reply.error.startswith("no such object"):
                    self.ops_completed += 1
                    return b"\x00" * length
                self._note_failure(reply)
                last = reply
        raise self._exhausted("read", object_name, policy.max_attempts, last)

    # -- erasure-coded pools ----------------------------------------------------------

    def write_ec(
        self,
        pool: Pool,
        object_name: str,
        data: bytes,
        direct: bool = False,
        sequential: bool = False,
        shards: Optional[list[bytes]] = None,
        ctx=NULL_SPAN,
        tenant: str = "",
    ) -> Generator:
        """Process: EC write of a whole object.

        ``direct=True``: the client encodes and addresses each shard OSD
        itself (codec CPU/FPGA cost is charged by the framework layer).
        Otherwise the primary encodes and fans out.  Shards already
        acked by their current target are not re-sent on retry.

        ``shards`` may carry the object pre-encoded (the RBD layer
        batch-encodes all objects of a multi-object write in one
        cross-stripe matmul); when absent the codec runs here.  Either
        way the bytes are identical.
        """
        if pool.pool_type != PoolType.ERASURE:
            raise StorageError(f"pool {pool.name!r} is not erasure-coded")
        policy = self.policy
        qos = self._qos_tag(tenant)
        shard_ops: dict[tuple[int, int], OsdOp] = {}  # (rank, target) -> op
        written: dict[int, int] = {}  # rank -> target that acked
        primary_op: Optional[OsdOp] = None
        group_version = 0
        last = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._note_retry()
                t0 = self.env.now
                yield from self._backoff(attempt - 1)
                if self.env.now > t0:
                    ctx.record("backoff", "wait", t0, self.env.now, attempt=attempt)
            acting = self.compute_placement(pool, object_name)
            targets = [(rank, osd) for rank, osd in enumerate(acting) if osd != CRUSH_ITEM_NONE]
            if len(targets) < pool.k:
                raise StorageError(
                    f"only {len(targets)} shard targets for {object_name!r}, need k={pool.k}"
                )
            if direct:
                if shards is None:
                    shards = self._codec(pool).encode(data)
                pending = [(rank, t) for rank, t in targets if written.get(rank) != t]
                if not pending:
                    self.ops_completed += 1
                    return
                procs = {}
                for rank, target in pending:
                    key = (rank, target)
                    op = shard_ops.get(key)
                    if op is None:
                        op = OsdOp(
                            OpKind.SHARD_WRITE,
                            pool.pool_id,
                            object_name,
                            0,
                            len(shards[rank]),
                            data=shards[rank],
                            shard=rank,
                            sequential=sequential,
                            epoch=self.osdmap.epoch,
                            qos=qos.derive() if qos is not None else None,
                        )
                        # One version across all shards of this write.
                        if group_version == 0:
                            group_version = op.op_id
                        op.version = group_version
                        shard_ops[key] = op
                    else:
                        op.epoch = self.osdmap.epoch
                    leg = ctx.child(f"osd.{target}", "rpc", attempt=attempt, shard=rank)
                    procs[key] = self.env.process(
                        traced_call(self, f"osd.{target}", op, policy.timeout_ns, leg),
                        name="shard",
                    )
                results = yield self.env.all_of(list(procs.values()))
                complete = True
                for (rank, target), proc in procs.items():
                    reply = results[proc]
                    if reply.ok:
                        written[rank] = target
                    else:
                        complete = False
                        self._note_failure(reply)
                        last = reply
                if complete:
                    self.ops_completed += 1
                    return
            else:
                primary = targets[0][1]
                if primary_op is None:
                    primary_op = OsdOp(
                        OpKind.EC_WRITE,
                        pool.pool_id,
                        object_name,
                        0,
                        len(data),
                        data=data,
                        acting=tuple(osd for _, osd in targets),
                        sequential=sequential,
                        epoch=self.osdmap.epoch,
                        qos=qos.derive() if qos is not None else None,
                    )
                else:
                    primary_op.acting = tuple(osd for _, osd in targets)
                    primary_op.epoch = self.osdmap.epoch
                leg = ctx.child(f"osd.{primary}", "rpc", attempt=attempt)
                reply = yield from traced_call(
                    self, f"osd.{primary}", primary_op, policy.timeout_ns, leg
                )
                if reply.ok:
                    self.ops_completed += 1
                    return
                self._note_failure(reply)
                last = reply
        raise self._exhausted("ec write", object_name, policy.max_attempts, last)

    def read_ec(
        self, pool: Pool, object_name: str, length: int, direct: bool = False, ctx=NULL_SPAN,
        tenant: str = "",
    ) -> Generator:
        """Process: EC read of a whole object of known ``length``.

        When shards are unreachable the gather falls back to parity
        ranks and the read degrades to decode-from-survivors (counted in
        ``degraded_reads``); whole-read failures retry under the policy.
        """
        if pool.pool_type != PoolType.ERASURE:
            raise StorageError(f"pool {pool.name!r} is not erasure-coded")
        policy = self.policy
        qos = self._qos_tag(tenant)
        last = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self._note_retry()
                t0 = self.env.now
                yield from self._backoff(attempt - 1)
                if self.env.now > t0:
                    ctx.record("backoff", "wait", t0, self.env.now, attempt=attempt)
            acting = self.compute_placement(pool, object_name)
            targets = [(rank, osd) for rank, osd in enumerate(acting) if osd != CRUSH_ITEM_NONE]
            if len(targets) < pool.k:
                raise StorageError(f"unrecoverable {object_name!r}: {len(targets)} < k={pool.k}")
            if direct:
                codec = self._codec(pool)
                shard_len = codec.shard_size(length)
                gather = ctx.child("gather", "fanout", attempt=attempt)
                try:
                    shards, degraded = yield from gather_shards(
                        self, pool, object_name, targets, shard_len, self.osdmap.epoch,
                        timeout_ns=policy.timeout_ns, ctx=gather, qos=qos,
                    )
                except StorageError as exc:
                    gather.finish(ok=False)
                    last = exc
                    continue
                gather.finish(degraded=degraded)
                if degraded:
                    self._note_degraded()
                self.ops_completed += 1
                return codec.decode(shards, length)
            primary = targets[0][1]
            op = OsdOp(
                OpKind.EC_READ,
                pool.pool_id,
                object_name,
                0,
                length,
                acting=tuple(osd for _, osd in targets),
                epoch=self.osdmap.epoch,
                qos=qos.derive() if qos is not None else None,
            )
            leg = ctx.child(f"osd.{primary}", "rpc", attempt=attempt)
            reply = yield from traced_call(self, f"osd.{primary}", op, policy.timeout_ns, leg)
            if reply.ok:
                self.ops_completed += 1
                return reply.data
            self._note_failure(reply)
            last = reply
        raise self._exhausted("ec read", object_name, policy.max_attempts, last)


def gather_shards(
    messenger, pool, object_name, targets, shard_len, epoch, preloaded=None, timeout_ns=None,
    ctx=NULL_SPAN, qos=None,
):
    """Process: collect >= k shards; returns ``(shards, degraded)``.

    Phase 1 reads the first k ranks in parallel (the healthy fast path);
    if some targets lack their shard or fail to answer (degraded
    placement, crashed OSD, lost message), further ranks are queried
    until k shards are in hand — ``degraded`` is True when any queried
    target failed and the decode runs from survivors.  Shared between
    the client-direct path and the EC primary, which passes its
    locally-read shard via ``preloaded``.
    """
    env = messenger.env
    shards: list[Optional[bytes]] = [None] * pool.size
    got = 0
    degraded = False
    if preloaded:
        for rank, data in preloaded.items():
            shards[rank] = data
            got += 1
    remaining = [(rank, tgt) for rank, tgt in targets if shards[rank] is None]
    idx = 0
    while got < pool.k and idx < len(remaining):
        batch = remaining[idx : idx + (pool.k - got)]
        idx += len(batch)
        procs = {}
        for rank, target in batch:
            op = OsdOp(
                OpKind.SHARD_READ,
                pool.pool_id,
                object_name,
                0,
                shard_len,
                shard=rank,
                epoch=epoch,
                qos=qos.derive() if qos is not None else None,
            )
            leg = ctx.child(f"osd.{target}", "rpc", shard=rank)
            procs[rank] = env.process(
                traced_call(messenger, f"osd.{target}", op, timeout_ns, leg), name="shard"
            )
        results = yield env.all_of(list(procs.values()))
        for rank, proc in procs.items():
            reply = results[proc]
            if reply.ok:
                shards[rank] = reply.data
                got += 1
            else:
                degraded = True
    if got < pool.k:
        raise StorageError(
            f"object {object_name!r}: only {got} shards readable, need k={pool.k}"
        )
    return shards, degraded
