"""Online self-healing: PG state machine, peering, and background recovery.

The cluster's one recovery mechanism: it keeps the cluster healing
itself **while clients keep issuing IO**, the way Ceph does:

* Every OSDMap epoch bump re-derives each PG's acting set; a changed set
  sends the PG through ``peering -> backfilling -> recovered`` (or
  ``degraded`` / ``incomplete`` when full redundancy is impossible).
* Peering and every recovery byte move through the real
  :class:`~repro.osd.fabric.Messenger` as PG_LIST / PULL / PUSH ops, so
  recovery traffic contends with client IO for network links, OSD worker
  threads, and device time — the client-vs-recovery tradeoff is a
  measurable knob (:class:`RecoveryConfig`).
* Per-OSD **recovery agents** run as sim processes on the primary of
  each damaged PG; a throttle bounds in-flight ops and bytes/s, and
  ``client_priority`` routes recovery ops through the QoS scheduler's
  low-weight ``recovery`` service class (see :mod:`repro.osd.qos`).
* **Degraded-mode availability**: clients read/write through the
  surviving acting set the whole time.  A per-PG missing set gates
  client mutations of not-yet-backfilled objects (they block, briefly,
  rather than race), and version-guarded pushes guarantee a write that
  lands during recovery is never clobbered by a stale backfill push.

The manager adds **zero** simulation events until
``CephCluster.enable_recovery()`` is called, so fault-free golden traces
are untouched.

Known simplification (vs. Ceph's pg_log): authoritative state is the
max mutation version seen by peering.  Enable recovery *before*
injecting faults; enabling it mid-degradation while clients write to
freshly remapped members can elect a partial copy authoritative.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Generator, Optional

from ..crush import CRUSH_ITEM_NONE, PlacementEngine
from ..crush.placement import object_to_pg
from ..net.stack import KERNEL_TCP
from ..sim import NULL_METRICS, Environment, Event, Resource
from .fabric import Messenger
from .ops import OpKind, OsdOp
from .osd import base_object_name, shard_object_name
from .osdmap import PoolType
from .qos import CLASS_RECOVERY, QosTag


class PGState(Enum):
    """Lifecycle of one placement group."""

    ACTIVE = "active"  # clean: every acting member has every object
    PEERING = "peering"  # census in progress; mutations briefly blocked
    BACKFILLING = "backfilling"  # agents moving missing copies
    DEGRADED = "degraded"  # serving IO but redundancy not restorable yet
    RECOVERED = "recovered"  # clean again after a completed backfill
    INCOMPLETE = "incomplete"  # some EC object has < k shards anywhere


#: States with no recovery work in flight.
_STABLE_STATES = frozenset(
    {PGState.ACTIVE, PGState.DEGRADED, PGState.RECOVERED, PGState.INCOMPLETE}
)

_EMPTY: frozenset = frozenset()


@dataclass
class RecoveryConfig:
    """Throttle knobs for the background recovery agents."""

    #: Concurrent objects a single agent recovers at once.
    max_inflight_ops: int = 4
    #: Recovery bandwidth cap per agent (pull + push bytes); None = none.
    bytes_per_sec: Optional[int] = None
    #: Yield to client traffic: recovery ops ride the cluster's QoS
    #: ``recovery`` service class (low weight, no reservation) instead
    #: of competing head-to-head in OSD queues.  Enabling this turns on
    #: cluster QoS if it is not already on.
    client_priority: bool = False
    #: Deadline per recovery op; None = wait (dead peers still bounce).
    op_timeout_ns: Optional[int] = None


@dataclass
class PGInfo:
    """Recovery-relevant state of one PG."""

    pool_id: int
    pg_id: int
    state: PGState = PGState.ACTIVE
    acting: tuple[int, ...] = ()
    prev_acting: tuple[int, ...] = ()
    #: OSDs ever seen acting for / holding this PG (peering recipients).
    known_members: set[int] = field(default_factory=set)
    #: target osd -> store keys that OSD still needs backfilled.
    missing: dict[int, set[str]] = field(default_factory=dict)
    #: Store keys of unrecoverable EC objects (writes NOT gated: a full
    #: client rewrite is the only thing that can heal them).
    incomplete_keys: set[str] = field(default_factory=set)
    #: Job generation; a queued/running job older than this aborts.
    serial: int = 0
    #: Census has run at least once (first one scans every up OSD).
    scanned: bool = False
    #: Event recreated per wait; fired on any state/missing change.
    progress: Optional[Event] = None


@dataclass
class _Job:
    """One peer-and-recover pass handed to an agent."""

    info: PGInfo
    serial: int


class RecoveryManager:
    """PG state machine + per-OSD recovery agents over one cluster.

    Also acts as the **recovery ledger** the OSD daemons consult:
    :meth:`is_missing` (absent reads fail over instead of serving
    authoritative zeros) and :meth:`write_gate` (mutations of missing
    objects block until their backfill push lands).
    """

    def __init__(self, env: Environment, cluster, config: Optional[RecoveryConfig] = None,
                 metrics=None):
        self.env = env
        self.cluster = cluster
        self.osdmap = cluster.osdmap
        self.daemons = cluster.daemons
        self.config = config or RecoveryConfig()
        self.placement = PlacementEngine(self.osdmap.crush)
        metrics = metrics or NULL_METRICS
        self._metrics = metrics
        self.pgs: dict[tuple[int, int], PGInfo] = {}
        self._agents: dict[int, _Agent] = {}
        self._inflight_jobs = 0
        self._quiesce: Optional[Event] = None
        #: PG index of each store key, per pool PG count.
        self._pg_index: dict[tuple[int, str], int] = {}
        self._m_bytes_pulled = metrics.counter("recovery.bytes_pulled")
        self._m_bytes_pushed = metrics.counter("recovery.bytes_pushed")
        self._m_ops = metrics.counter("recovery.ops")
        self._m_stale = metrics.counter("recovery.pushes_stale")
        self._m_objects = metrics.counter("recovery.objects_recovered")
        self._m_unrecoverable = metrics.counter("recovery.objects_unrecoverable")
        self._m_pgs_recovered = metrics.counter("recovery.pgs_recovered")
        self._m_trims = metrics.counter("recovery.trims")
        self._m_gate_waits = metrics.counter("recovery.write_gate_waits")
        self._m_agent_errors = metrics.counter("recovery.agent_errors")
        self._m_pg_time = metrics.distribution("recovery.pg_recovery_ns")
        self._state_gauges = {s: metrics.gauge(f"recovery.pg_state.{s.value}") for s in PGState}
        self.objects_unrecoverable = 0
        self.pgs_recovered = 0
        for daemon in self.daemons.values():
            daemon.recovery_ledger = self
        self._sync_pools()
        self._sync_agents()
        self.osdmap.watch(self._on_epoch)

    # -- ledger (consulted by OsdDaemon on the op path) -----------------------

    def pg_index(self, pg_num: int, key: str) -> int:
        """PG index of store ``key`` (an object or one of its EC shards)
        in a pool of ``pg_num`` PGs, hashed once per (PG count, key)."""
        memo = (pg_num, key)
        pg = self._pg_index.get(memo)
        if pg is None:
            pg = self._pg_index[memo] = object_to_pg(base_object_name(key), pg_num)
        return pg

    def _pg_of(self, pool_id: int, key: str) -> Optional[PGInfo]:
        pool = self.osdmap.pools.get(pool_id)
        if pool is None:
            return None
        return self.pgs.get((pool_id, self.pg_index(pool.pg_num, key)))

    def is_missing(self, osd_id: int, pool_id: int, key: str) -> bool:
        """True when ``key``'s absence on ``osd_id`` means "not yet
        backfilled": readers must fail over, not synthesize zeros."""
        info = self._pg_of(pool_id, key)
        if info is None:
            return False
        if info.state is PGState.PEERING:
            # The census isn't in yet — absence can't be trusted.
            return True
        return key in info.missing.get(osd_id, _EMPTY)

    def write_gate(self, osd_id: int, pool_id: int, key: str) -> Optional[Event]:
        """Event a client mutation of ``key`` on ``osd_id`` must wait
        for, or None when clear to apply.  Fires on any PG progress; the
        caller loops until clear."""
        info = self._pg_of(pool_id, key)
        if info is None:
            return None
        blocked = info.state is PGState.PEERING or key in info.missing.get(osd_id, _EMPTY)
        if not blocked:
            return None
        self._m_gate_waits.add()
        return self._progress_event(info)

    def _progress_event(self, info: PGInfo) -> Event:
        if info.progress is None:
            info.progress = self.env.event()
        return info.progress

    def _notify(self, info: PGInfo) -> None:
        event, info.progress = info.progress, None
        if event is not None:
            event.succeed()

    # -- map watching ---------------------------------------------------------

    def _sync_pools(self) -> None:
        """Create PGInfo entries for any new pool (treated clean: pools
        are born empty, so their current acting set is authoritative)."""
        for pool in self.osdmap.pools.values():
            for pg in range(pool.pg_num):
                key = (pool.pool_id, pg)
                if key not in self.pgs:
                    acting = tuple(
                        self.placement.pg_to_osds(
                            pool.pool_id, pg, pool.pg_num, pool.rule, pool.size
                        )
                    )
                    info = PGInfo(pool.pool_id, pg, acting=acting)
                    self.pgs[key] = info
                    self._state_gauges[PGState.ACTIVE].add()

    def _sync_agents(self) -> None:
        for osd_id, daemon in self.daemons.items():
            daemon.recovery_ledger = self
            if osd_id not in self._agents:
                self._agents[osd_id] = _Agent(self, osd_id)

    def _on_epoch(self, epoch: int) -> None:
        """OSDMap watcher: diff every PG's acting set; changed PGs go to
        peering and a job is queued on the new primary's agent."""
        self.placement.invalidate()
        self._sync_pools()
        self._sync_agents()
        for (pool_id, pg), info in sorted(self.pgs.items()):
            pool = self.osdmap.pools[pool_id]
            acting = tuple(
                self.placement.pg_to_osds(pool_id, pg, pool.pg_num, pool.rule, pool.size)
            )
            if acting != info.acting:
                self._schedule_peer(info, acting)

    def kick(self) -> None:
        """Force a peer-and-recover pass over every PG (used when
        recovery is enabled on a cluster that may already be damaged)."""
        self.placement.invalidate()
        for _, info in sorted(self.pgs.items()):
            pool = self.osdmap.pools[info.pool_id]
            acting = tuple(
                self.placement.pg_to_osds(
                    info.pool_id, info.pg_id, pool.pg_num, pool.rule, pool.size
                )
            )
            self._schedule_peer(info, acting)

    def _is_up(self, osd_id: int) -> bool:
        state = self.osdmap.osds.get(osd_id)
        return state is not None and state.up

    def _schedule_peer(self, info: PGInfo, acting: tuple[int, ...]) -> None:
        info.prev_acting = info.acting
        info.acting = acting
        info.serial += 1
        self._set_state(info, PGState.PEERING)
        primary = next((o for o in acting if o != CRUSH_ITEM_NONE and self._is_up(o)), None)
        if primary is None:
            # Nobody to serve or repair this PG until the map changes.
            self._set_state(info, PGState.INCOMPLETE)
            return
        self._inflight_jobs += 1
        self._agents[primary].submit(_Job(info, info.serial))

    def _set_state(self, info: PGInfo, state: PGState) -> None:
        if state is info.state:
            return
        self._state_gauges[info.state].add(-1)
        self._state_gauges[state].add()
        info.state = state
        self._notify(info)

    # -- convergence ----------------------------------------------------------

    @property
    def converged(self) -> bool:
        """True when no peering/backfill work is queued or running."""
        if self._inflight_jobs:
            return False
        return all(info.state in _STABLE_STATES for info in self.pgs.values())

    def wait_converged(self) -> Generator:
        """Process: block until the cluster has no recovery in flight."""
        while not self.converged:
            if self._quiesce is None:
                self._quiesce = self.env.event()
            yield self._quiesce

    def pg_states(self) -> dict[str, int]:
        """PG count per state name (metrics/reporting helper)."""
        counts = {s.value: 0 for s in PGState}
        for info in self.pgs.values():
            counts[info.state.value] += 1
        return counts

    def _job_done(self, info: PGInfo) -> None:
        self._inflight_jobs -= 1
        if self.converged:
            self._release_reserves()
            event, self._quiesce = self._quiesce, None
            if event is not None:
                event.succeed()

    def _release_reserves(self) -> None:
        """Backfill finished everywhere relevant: revived OSDs with no
        missing objects left return to authoritative-absence reads."""
        pending: set[int] = set()
        for info in self.pgs.values():
            for osd_id, keys in info.missing.items():
                if keys:
                    pending.add(osd_id)
        for osd_id, daemon in self.daemons.items():
            if daemon.backfill_reserve and osd_id not in pending and self._is_up(osd_id):
                daemon.backfill_reserve = False


class _Agent:
    """Per-OSD background recovery worker (its own fabric entity on the
    OSD's host, so every byte it moves is real fabric traffic)."""

    def __init__(self, manager: RecoveryManager, osd_id: int):
        self.manager = manager
        self.env = manager.env
        self.osd_id = osd_id
        self.daemon = manager.daemons[osd_id]
        host = manager.osdmap.host_of(osd_id)
        name = f"recovery.{osd_id}"
        manager.cluster.fabric.register(name, host, KERNEL_TCP)
        self.messenger = Messenger(self.env, manager.cluster.fabric, name)
        self.messenger.start()
        if manager.cluster.qos is not None:
            manager.cluster.qos.attach_messenger(self.messenger)
        self._queue: deque[_Job] = deque()
        self._wake: Event = self.env.event()
        self._window = Resource(
            self.env, capacity=manager.config.max_inflight_ops, name=f"{name}.window"
        )
        self._next_free_ns = 0
        self.last_error: Optional[Exception] = None
        self.env.process(self._run(), name=name)

    def submit(self, job: _Job) -> None:
        self._queue.append(job)
        if not self._wake.triggered:
            self._wake.succeed()

    def _run(self) -> Generator:
        while True:
            while not self._queue:
                self._wake = self.env.event()
                yield self._wake
            job = self._queue.popleft()
            try:
                yield from self._recover_pg(job)
            except Exception as exc:  # noqa: BLE001 - agent must survive one bad PG
                self.last_error = exc
                self.manager._m_agent_errors.add()

    # -- throttle -------------------------------------------------------------

    def _throttle(self, nbytes: int) -> Generator:
        cfg = self.manager.config
        if cfg.bytes_per_sec:
            now = self.env.now
            start = max(now, self._next_free_ns)
            self._next_free_ns = start + (nbytes * 1_000_000_000) // cfg.bytes_per_sec
            if start > now:
                yield self.env.timeout(start - now)

    def _call(self, osd_id: int, op: OsdOp) -> Generator:
        if self.messenger.qos_tracker is not None and op.qos is None:
            # Recovery traffic is shaped by the scheduler's ``recovery``
            # service class, not ad-hoc backoff against queue depth.
            op.qos = QosTag(svc=CLASS_RECOVERY)
        reply = yield from self.messenger.call(
            f"osd.{osd_id}", op, timeout_ns=self.manager.config.op_timeout_ns
        )
        self.manager._m_ops.add()
        return reply

    # -- one PG ---------------------------------------------------------------

    def _recover_pg(self, job: _Job) -> Generator:
        mgr = self.manager
        info = job.info
        t0 = self.env.now
        try:
            recovered = yield from self._peer_and_recover(job)
            if recovered:
                mgr.pgs_recovered += 1
                mgr._m_pgs_recovered.add()
                mgr._m_pg_time.record(self.env.now - t0)
        finally:
            mgr._job_done(info)

    def _superseded(self, job: _Job) -> bool:
        return job.info.serial != job.serial

    def _peer_and_recover(self, job: _Job) -> Generator:
        """Census the PG, backfill every missing copy, trim strays.
        Returns True when the PG ended clean after moving data."""
        mgr = self.manager
        info = job.info
        pool = mgr.osdmap.pools.get(info.pool_id)
        if pool is None or self._superseded(job):
            return False
        up = {o for o in mgr.osdmap.up_osds()}

        # --- peering: PG_LIST census over everyone who may hold data ---
        if info.scanned:
            recipients = sorted(
                up & (set(info.acting) | set(info.prev_acting) | info.known_members)
            )
        else:
            recipients = sorted(up)  # bootstrap: anyone may hold strays
        listings: dict[int, dict[str, tuple[int, int]]] = {}
        for osd_id in recipients:
            if osd_id == CRUSH_ITEM_NONE or self._superseded(job):
                break
            op = OsdOp(
                OpKind.PG_LIST, info.pool_id, f"pg{info.pg_id}",
                pg=info.pg_id, epoch=mgr.osdmap.epoch,
            )
            reply = yield from self._call(osd_id, op)
            if reply.ok and reply.listing is not None:
                listings[osd_id] = reply.listing
                info.known_members.add(osd_id)
        if self._superseded(job):
            return False
        info.scanned = True

        # --- authoritative census: max version wins per store key ---
        census: dict[str, tuple[int, int, list[int]]] = {}
        for osd_id in sorted(listings):
            for key, (ver, size) in listings[osd_id].items():
                cur = census.get(key)
                if cur is None or ver > cur[0]:
                    census[key] = (ver, size, [osd_id])
                elif ver == cur[0]:
                    cur[2].append(osd_id)

        replicated = pool.pool_type == PoolType.REPLICATED
        missing: dict[int, set[str]] = {}
        work: list[tuple] = []  # ("copy", key, ver, size, sources, targets)
        incomplete = 0
        info.incomplete_keys = set()
        if replicated:
            expected = [o for o in info.acting if o != CRUSH_ITEM_NONE and o in up]
            for key in sorted(census):
                ver, size, holders = census[key]
                targets = [o for o in expected if o not in holders]
                if not targets:
                    continue
                for o in targets:
                    missing.setdefault(o, set()).add(key)
                work.append(("copy", key, ver, size, sorted(holders), targets))
        else:
            objects: dict[str, dict[int, tuple[int, int, list[int]]]] = {}
            for key in census:
                base = base_object_name(key)
                if base == key:
                    continue  # not a shard key; nothing owns it
                rank = int(key.rsplit(".s", 1)[1])
                objects.setdefault(base, {})[rank] = census[key]
            for base in sorted(objects):
                ranks = objects[base]
                auth_ver = max(ver for ver, _, _ in ranks.values())
                at_auth = {
                    r: (size, holders)
                    for r, (ver, size, holders) in ranks.items()
                    if ver == auth_ver
                }
                need: list[tuple[int, int]] = []  # (rank, target)
                for rank, target in enumerate(info.acting):
                    if target == CRUSH_ITEM_NONE or target not in up:
                        continue
                    key = shard_object_name(base, rank)
                    if rank in at_auth and target in at_auth[rank][1]:
                        continue
                    need.append((rank, target))
                if not need:
                    continue
                direct = [(r, t) for r, t in need if r in at_auth]
                rebuild = [(r, t) for r, t in need if r not in at_auth]
                if rebuild and len(at_auth) < pool.k:
                    # Fewer than k shards survive anywhere: unrecoverable
                    # until a client rewrites the whole object (so these
                    # keys are NOT write-gated).
                    incomplete += 1
                    mgr.objects_unrecoverable += 1
                    mgr._m_unrecoverable.add()
                    for rank in ranks:
                        info.incomplete_keys.add(shard_object_name(base, rank))
                    rebuild = []
                    direct = []
                for rank, target in direct:
                    key = shard_object_name(base, rank)
                    missing.setdefault(target, set()).add(key)
                    size, holders = at_auth[rank]
                    work.append(("copy", key, auth_ver, size, sorted(holders), [target]))
                if rebuild:
                    for rank, target in rebuild:
                        missing.setdefault(target, set()).add(shard_object_name(base, rank))
                    work.append(("rebuild", base, auth_ver, at_auth, rebuild))

        info.missing = missing
        holes = any(
            o == CRUSH_ITEM_NONE or o not in up for o in info.acting
        )
        if not work:
            if incomplete:
                mgr._set_state(info, PGState.INCOMPLETE)
            elif holes:
                mgr._set_state(info, PGState.DEGRADED)
            else:
                mgr._set_state(info, PGState.ACTIVE)
            mgr._notify(info)
            yield from self._trim(job, pool, listings, census)
            return False

        # --- backfill: bounded-parallel object moves ---
        mgr._set_state(info, PGState.BACKFILLING)
        mgr._notify(info)  # peering over: un-gate clean keys
        legs = []
        for item in work:
            if item[0] == "copy":
                _, key, ver, size, sources, targets = item
                gen = self._copy_one(job, pool, key, ver, size, sources, targets)
            else:
                _, base, ver, at_auth, rebuild = item
                gen = self._rebuild_one(job, pool, base, ver, at_auth, rebuild)
            legs.append(self._windowed(gen))
        done = yield self.env.gather(legs)
        moved = sum(1 for ok in done if ok)
        if self._superseded(job):
            return False

        leftover = any(keys for keys in info.missing.values())
        if incomplete:
            mgr._set_state(info, PGState.INCOMPLETE)
        elif leftover or holes:
            mgr._set_state(info, PGState.DEGRADED)
        elif moved:
            mgr._set_state(info, PGState.RECOVERED)
        else:
            mgr._set_state(info, PGState.ACTIVE)
        mgr._notify(info)
        if not leftover and not incomplete:
            yield from self._trim(job, pool, listings, census)
        return info.state is PGState.RECOVERED

    def _windowed(self, gen) -> Generator:
        """Run one object move under the agent's in-flight window."""
        req = yield from self._window.acquire()
        try:
            result = yield from gen
        finally:
            self._window.release(req)
        return result

    def _clear_missing(self, info: PGInfo, osd_id: int, key: str) -> None:
        keys = info.missing.get(osd_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del info.missing[osd_id]
        self.manager._notify(info)

    def _copy_one(self, job, pool, key, ver, size, sources, targets) -> Generator:
        """Pull one store key from a surviving holder, push it to every
        member missing it (version-guarded)."""
        mgr = self.manager
        if self._superseded(job):
            return False
        yield from self._throttle(size)
        data = None
        pulled_ver = ver
        for src in sources:
            op = OsdOp(OpKind.PULL, pool.pool_id, key, 0, size, epoch=mgr.osdmap.epoch)
            reply = yield from self._call(src, op)
            if reply.ok:
                data = reply.data
                pulled_ver = reply.version
                break
        if data is None:
            mgr.objects_unrecoverable += 1
            mgr._m_unrecoverable.add()
            return False
        mgr._m_bytes_pulled.add(len(data))
        pushed = False
        for target in targets:
            if self._superseded(job):
                return pushed
            yield from self._throttle(len(data))
            op = OsdOp(
                OpKind.PUSH, pool.pool_id, key, 0, len(data),
                data=data, version=pulled_ver, epoch=mgr.osdmap.epoch,
            )
            reply = yield from self._call(target, op)
            if reply.ok:
                if reply.stale:
                    mgr._m_stale.add()
                mgr._m_bytes_pushed.add(len(data))
                self._clear_missing(job.info, target, key)
                pushed = True
        if pushed:
            mgr._m_objects.add()
        return pushed

    def _rebuild_one(self, job, pool, base, ver, at_auth, rebuild) -> Generator:
        """EC reconstruction: pull k surviving shards, rebuild the lost
        ranks on the agent's CPU, push them to their acting members."""
        mgr = self.manager
        if self._superseded(job):
            return False
        codec = self.daemon.codec_for(pool.pool_id)
        got: dict[int, bytes] = {}
        for rank in sorted(at_auth):
            if len(got) >= pool.k:
                break
            size, holders = at_auth[rank]
            key = shard_object_name(base, rank)
            yield from self._throttle(size)
            for src in sorted(holders):
                op = OsdOp(OpKind.PULL, pool.pool_id, key, 0, size, epoch=mgr.osdmap.epoch)
                reply = yield from self._call(src, op)
                if reply.ok:
                    got[rank] = reply.data
                    mgr._m_bytes_pulled.add(len(reply.data))
                    break
        if len(got) < pool.k:
            mgr.objects_unrecoverable += 1
            mgr._m_unrecoverable.add()
            return False
        slots: list[Optional[bytes]] = [got.get(r) for r in range(pool.size)]
        shard_len = max(len(s) for s in got.values())
        yield self.env.timeout(
            self.daemon.config.ec_decode_ns(pool.k, pool.m, shard_len * pool.k)
        )
        pushed = False
        for rank, target in rebuild:
            if self._superseded(job):
                return pushed
            shard = got.get(rank)
            if shard is None:
                shard = codec.reconstruct_shard(slots, rank)
            key = shard_object_name(base, rank)
            yield from self._throttle(len(shard))
            op = OsdOp(
                OpKind.PUSH, pool.pool_id, key, 0, len(shard),
                data=shard, version=ver, epoch=mgr.osdmap.epoch,
            )
            reply = yield from self._call(target, op)
            if reply.ok:
                if reply.stale:
                    mgr._m_stale.add()
                mgr._m_bytes_pushed.add(len(shard))
                self._clear_missing(job.info, target, key)
                pushed = True
        if pushed:
            mgr._m_objects.add()
        return pushed

    def _trim(self, job, pool, listings, census) -> Generator:
        """Delete stale copies from OSDs no longer responsible for them
        (prevents scrub flagging orphans after a remap)."""
        mgr = self.manager
        info = job.info
        replicated = pool.pool_type == PoolType.REPLICATED
        expected_rep = {o for o in info.acting if o != CRUSH_ITEM_NONE}
        for osd_id in sorted(listings):
            for key in sorted(listings[osd_id]):
                if key in info.incomplete_keys:
                    continue  # surviving shards of a lost object stay
                if replicated:
                    stray = osd_id not in expected_rep
                else:
                    base = base_object_name(key)
                    if base == key:
                        stray = True  # non-shard key in an EC pool
                    else:
                        rank = int(key.rsplit(".s", 1)[1])
                        stray = (
                            rank >= len(info.acting) or info.acting[rank] != osd_id
                        )
                if not stray:
                    continue
                if self._superseded(job):
                    return
                op = OsdOp(
                    OpKind.DELETE, pool.pool_id, key, version=-1,
                    epoch=mgr.osdmap.epoch,
                )
                reply = yield from self._call(osd_id, op)
                if reply.ok:
                    mgr._m_trims.add()
