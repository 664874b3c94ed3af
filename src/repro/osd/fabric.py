"""Entity-level messaging fabric over the simulated network.

Entities ("client0", "osd.5", "mon") live on network hosts; the fabric
routes messages between them, charging the sender's and receiver's TCP
stack costs and the wire transfer.  Co-located entities (two OSDs on the
same server) short-circuit through loopback at memory-copy cost.

Long-lived connections are assumed (as in Ceph's messenger, which keeps
sessions open), so no per-op handshake is charged.

The :class:`Messenger` base class adds request/reply correlation: ops
carry ids, replies resolve the matching pending event.  A started
messenger attaches its demux to the fabric, which calls it with each
:class:`Envelope` at delivery time: there is no inbox to queue in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..errors import NetworkError
from ..obs.context import NULL_SPAN
from ..sim import Environment, Event
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
    """One delivered message, as the fabric hands it to its receiver."""

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
        #: Per-entity delivery callbacks (see :meth:`attach`).
        self._receivers: dict[str, Callable[[Envelope], None]] = {}
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

    def attach(self, entity: str, receiver: Callable[[Envelope], None]) -> None:
        """Deliver ``entity``'s messages by calling ``receiver(envelope)``."""
        self.host_of(entity)  # validate
        self._receivers[entity] = receiver

    def detach(self, entity: str) -> None:
        """Remove ``entity``'s receiver: a delivery to it bounces while it
        is marked dead and raises otherwise."""
        self._receivers.pop(entity, None)

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

    def send(self, src: str, dst: str, nbytes: int, payload: Any) -> Generator:
        """Process: deliver ``payload`` from ``src`` to ``dst``.

        Completes when the receiver's stack has processed the message and
        its receiver has been called with it.  Chaos faults (installed via
        :attr:`faults`) and down links may instead lose, duplicate, or
        damage the message after the sender's stack cost is paid; a dead
        destination bounces requests with a transport-error reply.
        """
        src_host = self.host_of(src)
        dst_host = self.host_of(dst)
        corrupted = False
        if src_host == dst_host:
            yield self.env.timeout(LOOPBACK_NS + transfer_ns(nbytes, LOOPBACK_BW))
        else:
            action = self.faults.classify() if self.faults is not None else None
            yield self.env.timeout(self._entity_stack[src].tx_ns(nbytes))
            if not self.network.path_up(src_host, dst_host):
                self.link_drops += 1
                return  # lost on a down link; sender's stack cost already paid
            if action == "drop":
                return
            processed = self._wire(src, dst, nbytes)
            if action == "duplicate":
                # A second copy chases the first down the same path.
                self._wire(src, dst, nbytes).callbacks.append(
                    lambda _event: self._deliver(src, dst, nbytes, payload, corrupted=False)
                )
            # A sender killed while it waits here leaves its message on the
            # wire, still holding both links, but it is never delivered.
            yield processed
            corrupted = action == "corrupt"
        self._deliver(src, dst, nbytes, payload, corrupted)

    def _wire(self, src: str, dst: str, nbytes: int) -> Event:
        """Start a cross-host wire transfer.

        The returned event fires once the message has been delivered and
        the receiver's stack has processed it (RX cost).
        """
        processed = self.env.event()
        msg = Message(self._entity_host[src], self._entity_host[dst], nbytes, payload=(src, dst))
        self.network.transfer(
            msg, lambda _msg: processed.succeed(delay=self._entity_stack[dst].rx_ns(nbytes))
        )
        return processed

    def _deliver(self, src: str, dst: str, nbytes: int, payload: Any, corrupted: bool) -> None:
        """Hand an envelope to ``dst``'s receiver, or bounce it off a
        crashed ``dst``."""
        if dst in self._dead:
            self._bounce(dst, src, payload)
            return
        receiver = self._receivers.get(dst)
        if receiver is None:
            raise NetworkError(f"delivery to {dst!r}, which has no receiver attached")
        receiver(Envelope(src, payload, nbytes, corrupted))

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

    def start(self) -> None:
        """Attach the demux to the fabric (idempotent); clears any crash mark."""
        self.fabric.mark_alive(self.entity)
        # Looked up now, so a demux patched onto the class is the one attached.
        self.fabric.attach(self.entity, self._demux)

    def stop(self, status: BlkStatus = BlkStatus.TRANSPORT) -> None:
        """Crash the entity mid-op.

        Detaches the demux, kills every in-flight request handler, fails
        this entity's own outstanding calls, and bounces in-flight
        requesters — nobody is left waiting on an event that will never
        fire.  ``status`` selects the failure class the peers observe:
        TRANSPORT for a process crash (connection reset), AGAIN for a
        power loss (retryable — the entity returns after WAL replay).
        """
        self.fabric.detach(self.entity)
        self.fabric.mark_dead(self.entity, status)
        # Kill in-flight handlers; their requesters see a reset.
        for proc, (op_id, src) in list(self._handlers.items()):
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

    def _demux(self, envelope: Envelope) -> None:
        """Receive one envelope: resolve a reply's pending call, or start
        a handler for a request."""
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
                self._serve(payload, envelope.src),
                name=f"{self.entity}:op{getattr(payload, 'op_id', '?')}",
            )
            if isinstance(payload, OsdOp):
                self._handlers[proc] = (payload.op_id, envelope.src)

    def _serve(self, op: OsdOp, src: str) -> Generator:
        """Process: one request handler, untracked once it ends.

        Nobody waits on it, so a handler that dies with a real error
        (not a crash interrupt) still crashes the run when its failure
        is dispatched.
        """
        proc = self.env.active_process
        try:
            yield from self.on_request(op, src)
        finally:
            self._handlers.pop(proc, None)

    def call(self, dst: str, op: OsdOp, timeout_ns: Optional[int] = None) -> Generator:
        """Process: send ``op`` and wait for its reply (returned).

        With ``timeout_ns``, a reply that does not arrive in time yields
        a synthetic failed :class:`OsdReply` with a TIMEOUT status — the
        caller decides whether to retry against a newer map.  The pending
        entry is dropped on timeout, so a late reply is discarded rather
        than misdelivered to a future waiter.  A reply that lands at the
        deadline instant comes after the deadline (scheduled earlier),
        so it is dropped too.
        """
        ev = self.env.event()
        self._pending[op.op_id] = ev
        if self.qos_tracker is not None and op.qos is not None:
            self.qos_tracker.stamp(op, dst)
        yield from self.fabric.send(self.entity, dst, op.wire_size(), op)
        if timeout_ns is not None:
            self.env.timeout(timeout_ns).callbacks.append(
                lambda _deadline: self._expire(op.op_id, ev, timeout_ns)
            )
        reply = yield ev
        self._account_qos(op, reply)
        return reply

    def _expire(self, op_id: int, ev: Event, timeout_ns: int) -> None:
        """Deadline callback: answer a call still pending with TIMEOUT."""
        if self._pending.get(op_id) is ev:
            del self._pending[op_id]
            ev.succeed(
                OsdReply(op_id, False, error=f"timeout after {timeout_ns} ns",
                         status=BlkStatus.TIMEOUT)
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


def fan_out(
    messenger: Messenger, legs, timeout_ns: Optional[int] = None, local=None
) -> Generator:
    """Process: parallel sub-op calls; returns the replies in leg order.

    Each leg ``(osd, op, span)`` is one :func:`traced_call` to
    ``osd.<osd>``.  ``local``, a generator (a primary's own apply), is
    one more leg after them; its result comes last.  The legs are joined
    by :meth:`~repro.sim.Environment.gather`, so no leg is a process.
    """
    gens = [traced_call(messenger, f"osd.{osd}", op, timeout_ns, span) for osd, op, span in legs]
    if local is not None:
        gens.append(local)
    return (yield messenger.env.gather(gens))
