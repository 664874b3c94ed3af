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
from .fabric import Fabric, Messenger, fan_out, traced_call
from .ops import OpKind, OsdOp, OsdReply
from .osdmap import OSDMap, Pool, PoolType
from .policy import DEFAULT_POLICY, OpPolicy
from .qos import QosTag, derive


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
        #: Epoch-keyed placement cache: (pool_id, object) -> acting set.
        #: Valid for ``_placement_epoch`` only; cleared on any map bump
        #: (including the OpPolicy failover refresh), so a stale epoch is
        #: never served.
        self._placement_cache: dict[tuple[int, str], tuple[int, ...]] = {}
        self._codecs: dict[int, ReedSolomon] = {}
        self.policy = policy or DEFAULT_POLICY
        #: RNG substream for backoff jitter (None = no jitter).
        self._rng = rng
        #: Default tenant identity stamped on this client's ops when the
        #: per-call ``tenant`` argument is empty (one client per VM).
        self.tenant = ""
        self.ops_completed = 0
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
        acting = self._placement_cache.get(key)
        if acting is not None:
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
        # A client-cache miss may still be a PG-cache hit in the engine;
        # the cost model charges the full CRUSH cost only on real misses.
        self.last_was_miss = self.placement.last_was_miss
        self._placement_cache[key] = acting
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

    # -- the op path: one attempt loop, one body per kind of attempt -----------------

    def _attempts(self, kind: str, object_name: str, ctx, attempt) -> Generator:
        """Process: run one op under :attr:`policy`; returns its value.

        ``attempt(n)`` makes try ``n`` (a generator) and returns
        ``(True, value)`` when the op is done, or ``(False, failure)``
        with the failed reply or error that ended the try.  Every retry
        first waits the jittered backoff, recorded on ``ctx`` as a
        ``backoff`` wait; the last failure becomes the
        :class:`OsdOpError` raised when the attempts run out.
        """
        policy = self.policy
        last = None
        for n in range(1, policy.max_attempts + 1):
            if n > 1:
                self._note_retry()
                delay = policy.backoff_ns(n - 1, self._rng)
                if delay > 0:
                    t0 = self.env.now
                    yield self.env.timeout(delay)
                    ctx.record("backoff", "wait", t0, self.env.now, attempt=n)
            done, value = yield from attempt(n)
            if done:
                self.ops_completed += 1
                return value
            last = value
        if isinstance(last, OsdReply):
            status, detail = last.status, last.error
        elif isinstance(last, StorageError):
            status, detail = getattr(last, "status", BlkStatus.IOERR), str(last)
        else:
            status, detail = BlkStatus.IOERR, "no reply"
        raise OsdOpError(
            f"{kind} {object_name!r} failed after {policy.max_attempts} attempts: {detail}",
            status=status,
            attempts=policy.max_attempts,
        )

    def _direct_write(
        self, pool: Pool, object_name: str, offset: int, sequential: bool, qos, ctx, place
    ):
        """Attempt body of a client fan-out write (the DeLiBA datapath).

        ``place()`` returns the attempt's ``(slot, target, payload)``
        pieces, where a slot is a replica's OSD or an EC rank.  Each
        (slot, target) keeps one op across attempts, so an OSD that
        already applied it replays the ack by op id; every op of the
        write carries the first one's id as its version, so recovery
        peering sees the copies as equals; and a slot whose current
        target acked is not sent again.
        """
        sharded = pool.pool_type == PoolType.ERASURE
        kind = OpKind.SHARD_WRITE if sharded else OpKind.WRITE_DIRECT
        ops: dict[tuple[int, int], OsdOp] = {}
        acked: dict[int, int] = {}  # slot -> target that acked
        version = 0

        def attempt(n: int) -> Generator:
            nonlocal version
            pending = [piece for piece in place() if acked.get(piece[0]) != piece[1]]
            if not pending:  # an epoch change left only acked slots
                return True, None
            epoch = self.osdmap.epoch
            legs = []
            for slot, target, payload in pending:
                op = ops.get((slot, target))
                if op is None:
                    op = ops[slot, target] = OsdOp(
                        kind, pool.pool_id, object_name, offset, len(payload), data=payload,
                        shard=slot if sharded else -1, sequential=sequential, epoch=epoch,
                        qos=derive(qos),
                    )
                    version = version or op.op_id
                    op.version = version
                else:
                    op.epoch = epoch
                if sharded:
                    span = ctx.child(f"osd.{target}", "rpc", attempt=n, shard=slot)
                else:
                    span = ctx.child(f"osd.{target}", "rpc", attempt=n)
                legs.append((target, op, span))
            replies = yield from fan_out(self, legs, self.policy.timeout_ns)
            failure = None
            for (slot, target, _), reply in zip(pending, replies):
                if reply.ok:
                    acked[slot] = target
                else:
                    self._note_failure(reply)
                    failure = reply
            return failure is None, failure

        return attempt

    def _via_primary(
        self, kind: OpKind, pool: Pool, object_name: str, offset: int, length: int,
        data: Optional[bytes], sequential: bool, qos, ctx, place,
    ):
        """Attempt body of a primary-mediated op (stock Ceph): one traced
        call to the first live member of the acting set ``place()``
        returns, which forwards the sub-ops itself.

        A write (an op with ``data``) keeps its op across attempts,
        re-addressed to the current acting set, so a primary that
        already applied it replays the ack by op id; a read gets a fresh
        op per attempt.
        """
        op = None

        def attempt(n: int) -> Generator:
            nonlocal op
            acting = place()
            primary = next(osd for osd in acting if osd != CRUSH_ITEM_NONE)
            if op is None or data is None:
                op = OsdOp(
                    kind, pool.pool_id, object_name, offset, length, data=data, acting=acting,
                    sequential=sequential, epoch=self.osdmap.epoch, qos=derive(qos),
                )
            else:
                op.acting = acting
                op.epoch = self.osdmap.epoch
            leg = ctx.child(f"osd.{primary}", "rpc", attempt=n)
            reply = yield from traced_call(self, f"osd.{primary}", op, self.policy.timeout_ns, leg)
            if reply.ok:
                return True, reply.data
            self._note_failure(reply)
            return False, reply

        return attempt

    # -- replicated pools ---------------------------------------------------------

    def _replicas(self, pool: Pool, object_name: str) -> tuple[int, ...]:
        """The live members of a replicated object's acting set."""
        return tuple(o for o in self.compute_placement(pool, object_name) if o != CRUSH_ITEM_NONE)

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
        qos = self._qos_tag(tenant)

        def place() -> tuple[int, ...]:
            acting = self._replicas(pool, object_name)
            if not acting:
                raise StorageError(f"no acting set for {object_name!r} (cluster too degraded)")
            return acting

        if direct:
            attempt = self._direct_write(
                pool, object_name, offset, sequential, qos, ctx,
                lambda: [(osd, osd, data) for osd in place()],
            )
        else:
            attempt = self._via_primary(
                OpKind.WRITE, pool, object_name, offset, len(data), data, sequential, qos, ctx,
                place,
            )
        yield from self._attempts("write", object_name, ctx, attempt)

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
        qos = self._qos_tag(tenant)

        def attempt(n: int) -> Generator:
            acting = self._replicas(pool, object_name)
            if not acting:
                raise StorageError(f"no acting set for {object_name!r}")
            failure = None
            for idx, target in enumerate(acting):
                # Fresh op per (attempt, target) — the failover leg still
                # derives the originating op's QoS identity, so it never
                # re-enters the secondary's queue anonymously.
                op = OsdOp(
                    OpKind.READ, pool.pool_id, object_name, offset, length,
                    epoch=self.osdmap.epoch, qos=derive(qos),
                )
                leg = ctx.child(f"osd.{target}", "rpc", attempt=n, failover=idx)
                reply = yield from traced_call(
                    self, f"osd.{target}", op, self.policy.timeout_ns, leg
                )
                if reply.ok:
                    if idx > 0:
                        self._note_failover()
                    return True, reply.data
                if reply.error.startswith("no such object"):
                    return True, b"\x00" * length
                self._note_failure(reply)
                failure = reply
            return False, failure

        return (yield from self._attempts("read", object_name, ctx, attempt))

    # -- erasure-coded pools ----------------------------------------------------------

    def write_ec(
        self,
        pool: Pool,
        object_name: str,
        data: bytes,
        direct: bool = False,
        sequential: bool = False,
        ctx=NULL_SPAN,
        tenant: str = "",
    ) -> Generator:
        """Process: EC write of a whole object.

        ``direct=True``: the client encodes and addresses each shard OSD
        itself (codec CPU/FPGA cost is charged by the framework layer).
        Otherwise the primary encodes and fans out.  Shards already
        acked by their current target are not re-sent on retry.
        """
        if pool.pool_type != PoolType.ERASURE:
            raise StorageError(f"pool {pool.name!r} is not erasure-coded")
        qos = self._qos_tag(tenant)

        def place() -> tuple[int, ...]:
            acting = self.compute_placement(pool, object_name)
            live = len(acting) - acting.count(CRUSH_ITEM_NONE)
            if live < pool.k:
                raise StorageError(f"only {live} shard targets for {object_name!r}, need k={pool.k}")
            return acting

        shards: Optional[list[bytes]] = None  # encoded once, on the first attempt

        def pieces() -> list[tuple[int, int, bytes]]:
            nonlocal shards
            acting = place()
            if shards is None:
                shards = self._codec(pool).encode(data)
            return [(rank, osd, shards[rank]) for rank, osd in _live(acting)]

        if direct:
            attempt = self._direct_write(pool, object_name, 0, sequential, qos, ctx, pieces)
        else:
            attempt = self._via_primary(
                OpKind.EC_WRITE, pool, object_name, 0, len(data), data, sequential, qos, ctx,
                place,
            )
        yield from self._attempts("ec write", object_name, ctx, attempt)

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
        qos = self._qos_tag(tenant)

        def place() -> tuple[int, ...]:
            acting = self.compute_placement(pool, object_name)
            live = len(acting) - acting.count(CRUSH_ITEM_NONE)
            if live < pool.k:
                raise StorageError(f"unrecoverable {object_name!r}: {live} < k={pool.k}")
            return acting

        def gather(n: int) -> Generator:
            targets = _live(place())
            codec = self._codec(pool)
            span = ctx.child("gather", "fanout", attempt=n)
            try:
                shards, degraded = yield from gather_shards(
                    self, pool, object_name, targets, codec.shard_size(length),
                    self.osdmap.epoch, timeout_ns=self.policy.timeout_ns, ctx=span, qos=qos,
                )
            except StorageError as exc:
                span.finish(ok=False)
                return False, exc
            span.finish(degraded=degraded)
            if degraded:
                self._note_degraded()
            return True, codec.decode(shards, length)

        if direct:
            attempt = gather
        else:
            attempt = self._via_primary(
                OpKind.EC_READ, pool, object_name, 0, length, None, False, qos, ctx, place,
            )
        return (yield from self._attempts("ec read", object_name, ctx, attempt))


def _live(acting: tuple[int, ...]) -> list[tuple[int, int]]:
    """``(rank, osd)`` of the members of an acting set that CRUSH filled."""
    return [(rank, osd) for rank, osd in enumerate(acting) if osd != CRUSH_ITEM_NONE]


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
        legs = [
            (
                target,
                OsdOp(
                    OpKind.SHARD_READ, pool.pool_id, object_name, 0, shard_len, shard=rank,
                    epoch=epoch, qos=derive(qos),
                ),
                ctx.child(f"osd.{target}", "rpc", shard=rank),
            )
            for rank, target in batch
        ]
        replies = yield from fan_out(messenger, legs, timeout_ns)
        for (rank, _target), reply in zip(batch, replies):
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
