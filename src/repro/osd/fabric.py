"""Entity-level messaging fabric over the simulated network.

Entities ("client0", "osd.5", "mon") live on network hosts; the fabric
routes messages between them, charging the sender's and receiver's TCP
stack costs and the wire transfer.  Co-located entities (two OSDs on the
same server) short-circuit through loopback at memory-copy cost.

Long-lived connections are assumed (as in Ceph's messenger, which keeps
sessions open), so no per-op handshake is charged.

The :class:`Messenger` base class adds request/reply correlation: ops
carry ids, replies resolve the matching pending event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..errors import NetworkError, ProcessKilled
from ..obs.context import NULL_SPAN
from ..sim import Environment, Event, Store
from ..status import BlkStatus
from ..units import transfer_ns, us
from .ops import OsdOp, OsdReply
from ..net.message import Message
from ..net.stack import KERNEL_TCP, StackProfile
from ..net.topology import Network

#: Loopback latency for same-host delivery.
LOOPBACK_NS = us(2)
#: Memory bandwidth used for loopback copies.
LOOPBACK_BW = 10e9  # bytes/sec


@dataclass
class Envelope:
    """What a receiver pulls from its fabric inbox."""

    src: str
    payload: Any
    size: int
    #: Payload arrived damaged (chaos injection); receivers treat it as
    #: a checksum mismatch instead of parsing garbage.
    corrupted: bool = False


@dataclass
class MessageFaults:
    """Deterministic message-level chaos on cross-host traffic.

    One RNG draw classifies each cross-host message as dropped,
    duplicated, corrupted, or clean; draws come from a named sim RNG
    substream so the same seed yields the same fault pattern.  Loopback
    traffic is exempt (there is no wire to lose it on).
    """

    rng: Any
    drop_p: float = 0.0
    duplicate_p: float = 0.0
    corrupt_p: float = 0.0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0

    def classify(self) -> Optional[str]:
        """Fate of one message: 'drop' | 'duplicate' | 'corrupt' | None."""
        total = self.drop_p + self.duplicate_p + self.corrupt_p
        if total <= 0:
            return None
        r = self.rng.uniform(0.0, 1.0)
        if r < self.drop_p:
            self.dropped += 1
            return "drop"
        if r < self.drop_p + self.duplicate_p:
            self.duplicated += 1
            return "duplicate"
        if r < total:
            self.corrupted += 1
            return "corrupt"
        return None


class Fabric:
    """Routes entity-to-entity messages across the network."""

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network
        self._entity_host: dict[str, str] = {}
        self._entity_stack: dict[str, StackProfile] = {}
        self._inbox: dict[str, Store] = {}
        #: Crashed entities and the status their bounces carry: a process
        #: crash answers with TRANSPORT (the peer kernel's RST); a power
        #: loss answers with the retryable AGAIN status.
        self._dead: dict[str, BlkStatus] = {}
        #: Optional chaos injection applied to cross-host messages.
        self.faults: Optional[MessageFaults] = None
        #: Messages lost because a link on the path was down.
        self.link_drops = 0

    def register(self, entity: str, host: str, stack: StackProfile = KERNEL_TCP) -> None:
        """Bind an entity name to a network host and a TCP stack profile."""
        if entity in self._entity_host:
            raise NetworkError(f"entity {entity!r} already registered")
        self.network.host(host)  # validate
        self._entity_host[entity] = host
        self._entity_stack[entity] = stack
        self._inbox[entity] = Store(self.env, name=f"fabric:{entity}")

    def set_stack(self, entity: str, stack: StackProfile) -> None:
        """Swap an entity's stack profile (framework configuration)."""
        if entity not in self._entity_stack:
            raise NetworkError(f"unknown entity {entity!r}")
        self._entity_stack[entity] = stack

    def host_of(self, entity: str) -> str:
        """Network host an entity lives on."""
        if entity not in self._entity_host:
            raise NetworkError(f"unknown entity {entity!r}")
        return self._entity_host[entity]

    def mark_dead(self, entity: str, status: BlkStatus = BlkStatus.TRANSPORT) -> None:
        """Record an entity crash: future deliveries to it bounce."""
        self.host_of(entity)  # validate
        self._dead[entity] = status

    def mark_alive(self, entity: str) -> None:
        """Clear the crash mark (entity restart)."""
        self._dead.pop(entity, None)

    def is_dead(self, entity: str) -> bool:
        """True if the entity has crashed and not restarted."""
        return entity in self._dead

    def drain_inbox(self, entity: str) -> list:
        """Remove and return every queued envelope (crash handling)."""
        store = self._inbox[entity]
        items = list(store.items)
        store.items.clear()
        return items

    def send(self, src: str, dst: str, nbytes: int, payload: Any) -> Generator:
        """Process: deliver ``payload`` from ``src`` to ``dst``.

        Completes when the receiver's stack has processed the message and
        it sits in the destination inbox.  Chaos faults (installed via
        :attr:`faults`) and down links may instead lose, duplicate, or
        damage the message after the sender's stack cost is paid; a dead
        destination bounces requests with a transport-error reply.
        """
        src_host = self.host_of(src)
        dst_host = self.host_of(dst)
        if src_host == dst_host:
            yield self.env.timeout(LOOPBACK_NS + transfer_ns(nbytes, LOOPBACK_BW))
            yield from self._deliver(src, dst, nbytes, payload, corrupted=False)
            return
        action = self.faults.classify() if self.faults is not None else None
        yield self.env.timeout(self._entity_stack[src].tx_ns(nbytes))
        if not self.network.path_up(src_host, dst_host):
            self.link_drops += 1
            return  # lost on a down link; sender's stack cost already paid
        if action == "drop":
            return
        if action == "duplicate":
            # A second copy chases the first down the same path.
            self.env.process(
                self._wire(src, dst, nbytes, payload, corrupted=False),
                name=f"{src}->{dst}:dup",
            )
        yield from self._wire(src, dst, nbytes, payload, corrupted=action == "corrupt")

    def _wire(self, src: str, dst: str, nbytes: int, payload: Any, corrupted: bool) -> Generator:
        """Wire transfer + receiver stack + inbox delivery (cross-host)."""
        src_host = self.host_of(src)
        dst_host = self.host_of(dst)
        msg = Message(src_host, dst_host, nbytes, payload=(src, dst))
        yield self.env.process(self.network.send(msg))
        yield self.network.host(dst_host).inbox.get(lambda m: m.msg_id == msg.msg_id)
        yield self.env.timeout(self._entity_stack[dst].rx_ns(nbytes))
        yield from self._deliver(src, dst, nbytes, payload, corrupted)

    def _deliver(self, src: str, dst: str, nbytes: int, payload: Any, corrupted: bool) -> Generator:
        if dst in self._dead:
            self._bounce(dst, src, payload)
            return
        yield self._inbox[dst].put(Envelope(src, payload, nbytes, corrupted))

    def _bounce(self, dead: str, src: str, payload: Any) -> None:
        """Answer a request to a crashed entity with the kernel's RST."""
        if isinstance(payload, OsdOp) and src not in self._dead:
            status = self._dead[dead]
            if status is BlkStatus.AGAIN:
                error = f"power loss: {dead} is unavailable"
            else:
                error = f"connection refused: {dead} is down"
            refusal = OsdReply(payload.op_id, False, error=error, status=status)
            self.send_async(dead, src, refusal.wire_size(), refusal)

    def send_async(self, src: str, dst: str, nbytes: int, payload: Any):
        """Fire-and-forget send (returns the delivery process event)."""
        return self.env.process(self.send(src, dst, nbytes, payload), name=f"{src}->{dst}")

    def recv(self, entity: str):
        """Event yielding the next :class:`Envelope` for ``entity``."""
        if entity not in self._inbox:
            raise NetworkError(f"unknown entity {entity!r}")
        return self._inbox[entity].get()


class Messenger:
    """Request/reply correlation for one entity on the fabric."""

    def __init__(self, env: Environment, fabric: Fabric, entity: str):
        self.env = env
        self.fabric = fabric
        self.entity = entity
        #: Optional dmClock distributed-tag bookkeeping (installed by
        #: ``CephCluster.enable_qos``): stamps rho/delta onto outgoing
        #: tagged ops and consumes the phase feedback on replies.  Pure
        #: attribute work — no events, so QoS-off runs are untouched.
        self.qos_tracker = None
        self._pending: dict[int, Event] = {}
        #: In-flight request-handler processes, insertion-ordered so a
        #: crash kills them deterministically: proc -> (op_id, src).
        self._handlers: dict = {}
        self._loop_proc = None

    def start(self) -> None:
        """Spawn the demux loop (idempotent); clears any crash mark."""
        self.fabric.mark_alive(self.entity)
        if self._loop_proc is None:
            self._loop_proc = self.env.process(self._demux(), name=f"msgr:{self.entity}")

    def stop(self, status: BlkStatus = BlkStatus.TRANSPORT) -> None:
        """Crash the entity mid-op.

        Kills the demux loop and every in-flight request handler, fails
        this entity's own outstanding calls, and bounces queued/in-flight
        requesters — nobody is left waiting on an event that will never
        fire.  ``status`` selects the failure class the peers observe:
        TRANSPORT for a process crash (connection reset), AGAIN for a
        power loss (retryable — the entity returns after WAL replay).
        """
        if self._loop_proc is not None and self._loop_proc.is_alive:
            self._loop_proc.interrupt("stopped")
        self._loop_proc = None
        self.fabric.mark_dead(self.entity, status)
        # Kill in-flight handlers; their requesters see a reset.
        for proc, (op_id, src) in list(self._handlers.items()):
            if proc.is_alive:
                proc.interrupt("crashed")
            self._reset_reply(op_id, src, status)
        self._handlers.clear()
        # Fail our own outstanding calls (no reply is ever coming).
        if status is BlkStatus.AGAIN:
            own_error = f"{self.entity} lost power with op {{op_id}} outstanding"
        else:
            own_error = f"{self.entity} stopped with op {{op_id}} outstanding"
        for op_id, ev in list(self._pending.items()):
            if not ev.triggered:
                ev.succeed(
                    OsdReply(
                        op_id,
                        False,
                        error=own_error.format(op_id=op_id),
                        status=status,
                    )
                )
        self._pending.clear()
        # Bounce requests already accepted into the inbox but unread.
        for envelope in self.fabric.drain_inbox(self.entity):
            if isinstance(envelope.payload, OsdOp):
                self._reset_reply(envelope.payload.op_id, envelope.src, status)

    def _reset_reply(
        self, op_id: int, src: str, status: BlkStatus = BlkStatus.TRANSPORT
    ) -> None:
        """Send the reset a peer's kernel would emit for a dead process."""
        if self.fabric.is_dead(src):
            return
        if status is BlkStatus.AGAIN:
            error = f"power loss: {self.entity} went dark"
        else:
            error = f"connection reset: {self.entity} crashed"
        reply = OsdReply(op_id, False, error=error, status=status)
        self.fabric.send_async(self.entity, src, reply.wire_size(), reply)

    def _demux(self) -> Generator:
        while True:
            envelope = yield self.fabric.recv(self.entity)
            payload = envelope.payload
            if isinstance(payload, OsdReply):
                if envelope.corrupted:
                    # Damaged reply: surface a checksum failure, never
                    # the (garbage) payload.
                    payload = OsdReply(
                        payload.op_id,
                        False,
                        error="reply payload failed checksum",
                        status=BlkStatus.MEDIUM,
                        epoch=payload.epoch,
                    )
                pending = self._pending.pop(payload.op_id, None)
                if pending is not None:
                    pending.succeed(payload)
            elif envelope.corrupted and isinstance(payload, OsdOp):
                # Damaged request: refuse instead of executing garbage.
                self.env.process(
                    self.reply_to(
                        envelope.src,
                        OsdReply(
                            payload.op_id,
                            False,
                            error="request payload failed checksum",
                            status=BlkStatus.MEDIUM,
                        ),
                    ),
                    name=f"{self.entity}:crc{payload.op_id}",
                )
            else:
                proc = self.env.process(
                    self.on_request(payload, envelope.src),
                    name=f"{self.entity}:op{getattr(payload, 'op_id', '?')}",
                )
                if isinstance(payload, OsdOp):
                    self._handlers[proc] = (payload.op_id, envelope.src)
                    proc.callbacks.append(self._reap_handler)

    def _reap_handler(self, proc) -> None:
        self._handlers.pop(proc, None)
        # Preserve pre-tracking semantics: a handler that dies with a
        # real error (not a crash interrupt) still crashes the sim.
        if not proc.ok and not isinstance(proc.value, ProcessKilled):
            raise proc.value

    def call(self, dst: str, op: OsdOp, timeout_ns: Optional[int] = None) -> Generator:
        """Process: send ``op`` and wait for its reply (returned).

        With ``timeout_ns``, a reply that does not arrive in time yields
        a synthetic failed :class:`OsdReply` with a TIMEOUT status — the
        caller decides whether to retry against a newer map.  The pending
        entry is dropped on timeout, so a late reply is discarded rather
        than misdelivered to a future waiter.
        """
        ev = self.env.event()
        self._pending[op.op_id] = ev
        if self.qos_tracker is not None and op.qos is not None:
            self.qos_tracker.stamp(op, dst)
        yield from self.fabric.send(self.entity, dst, op.wire_size(), op)
        if timeout_ns is None:
            reply = yield ev
            self._account_qos(op, reply)
            return reply
        deadline = self.env.timeout(timeout_ns)
        results = yield self.env.any_of([ev, deadline])
        if ev in results:
            reply = results[ev]
            self._account_qos(op, reply)
            return reply
        self._pending.pop(op.op_id, None)
        return OsdReply(
            op.op_id,
            False,
            error=f"timeout after {timeout_ns} ns",
            status=BlkStatus.TIMEOUT,
        )

    def _account_qos(self, op: OsdOp, reply: OsdReply) -> None:
        """Feed dmClock phase feedback to the tracker (synthetic replies
        carry phase 0 and are ignored)."""
        if self.qos_tracker is not None and op.qos is not None and reply.qos_phase:
            self.qos_tracker.account(op.qos, reply.qos_phase)

    def reply_to(self, dst: str, reply: OsdReply) -> Generator:
        """Process: send a reply back to the requester."""
        yield from self.fabric.send(self.entity, dst, reply.wire_size(), reply)

    def on_request(self, op: OsdOp, src: str) -> Generator:
        """Handle an incoming request (override in daemons)."""
        raise NotImplementedError(f"{self.entity} received unexpected request {op!r}")
        yield  # pragma: no cover


def traced_call(
    messenger: Messenger, dst: str, op: OsdOp, timeout_ns: Optional[int] = None,
    span=NULL_SPAN,
) -> Generator:
    """Process: :meth:`Messenger.call` under a causal leg span.

    Stamps ``op.obs_span`` so the serving OSD can attach its
    queue/service sub-spans to the same leg, and closes ``span`` when
    the reply (including the synthetic timeout reply) lands.  Span
    bookkeeping creates no events: the call is byte-for-byte
    ``messenger.call``, traced or not.
    """
    op.obs_span = span
    reply = yield from messenger.call(dst, op, timeout_ns=timeout_ns)
    if not reply.ok:
        span.annotate(status=reply.status.name)
    span.finish(ok=reply.ok)
    return reply
