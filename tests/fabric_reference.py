"""Inbox-and-loop reference for :class:`repro.osd.fabric.Fabric` delivery.

This is the messaging model direct delivery replaced: the fabric puts
each delivered :class:`Envelope` into the destination's inbox (a
``Store`` from ``store_reference.py``) and the sender waits for the put; each
messenger runs a demux loop process parked on its inbox, spawns every
request handler with a completion callback that untracks it, and waits
on a call with a deadline through an ``any_of`` condition.  The
differential property in ``test_fabric_express.py`` requires both to
start every handler and return every call at the same instants.

The two part only in the order of work within one nanosecond.  The loop
reads one envelope per wake-up, a step behind the arrival, so an
entity's second envelope of an instant waits behind other entities'
first ones, and a refusal a corrupted request earns is sent after any
other send of that instant; direct delivery handles each envelope as it
arrives.  When sends of one instant swap, they also swap their fault
draws.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import ProcessKilled
from repro.net import KERNEL_TCP
from repro.osd.fabric import LOOPBACK_BW, LOOPBACK_NS, Envelope, Fabric, Messenger
from repro.osd.ops import OsdOp, OsdReply
from repro.status import BlkStatus
from repro.units import transfer_ns

from .store_reference import Store


class ReferenceFabric(Fabric):
    """A fabric that queues deliveries in per-entity inboxes."""

    def __init__(self, env, network):
        super().__init__(env, network)
        self._inbox: dict[str, Store] = {}
        #: Instant of every arrival: a delivery or a bounce.
        self.arrivals: list = []

    def register(self, entity, host, stack=KERNEL_TCP):
        super().register(entity, host, stack)
        self._inbox[entity] = Store(self.env, name=f"fabric:{entity}")

    def drain_inbox(self, entity: str) -> list:
        store = self._inbox[entity]
        items = list(store.items)
        store.items.clear()
        return items

    def recv(self, entity: str):
        return self._inbox[entity].get()

    def send(self, src: str, dst: str, nbytes: int, payload: Any) -> Generator:
        route = self._routes.get((src, dst)) or self._route(src, dst)
        corrupted = False
        if route.local:
            yield self.env.timeout(LOOPBACK_NS + transfer_ns(nbytes, LOOPBACK_BW))
        else:
            action = self.faults.classify() if self.faults is not None else None
            yield self.env.timeout(route.src_stack.tx_ns(nbytes))
            if not (route.uplink.up and route.downlink.up):
                self.link_drops += 1
                return
            if action == "drop":
                return
            processed = self._wire(route, nbytes)
            if action == "duplicate":
                self._wire(route, nbytes).callbacks.append(
                    lambda _event: self._deliver(src, dst, nbytes, payload, corrupted=False)
                )
            yield processed
            corrupted = action == "corrupt"
        accepted = self._deliver(src, dst, nbytes, payload, corrupted)
        if accepted is not None:
            yield accepted

    def _deliver(self, src, dst, nbytes, payload, corrupted):
        self.arrivals.append(self.env.now)
        if dst in self._dead:
            self._bounce(dst, src, payload)
            return None
        return self._inbox[dst].put(Envelope(src, payload, nbytes, corrupted))


class ReferenceMessenger(Messenger):
    """A messenger whose demux is a loop process parked on its inbox."""

    def __init__(self, env, fabric, entity):
        super().__init__(env, fabric, entity)
        self._loop_proc = None

    def start(self) -> None:
        self.fabric.mark_alive(self.entity)
        if self._loop_proc is None:
            self._loop_proc = self.env.process(self._demux(), name=f"msgr:{self.entity}")

    def stop(self, status: BlkStatus = BlkStatus.TRANSPORT) -> None:
        if self._loop_proc is not None and self._loop_proc.is_alive:
            self._loop_proc.interrupt("stopped")
        self._loop_proc = None
        self.fabric.mark_dead(self.entity, status)
        for proc, (op_id, src) in list(self._handlers.items()):
            if proc.is_alive:
                proc.interrupt("crashed")
            self._reset_reply(op_id, src, status)
        self._handlers.clear()
        if status is BlkStatus.AGAIN:
            own_error = f"{self.entity} lost power with op {{op_id}} outstanding"
        else:
            own_error = f"{self.entity} stopped with op {{op_id}} outstanding"
        for op_id, ev in list(self._pending.items()):
            if not ev.triggered:
                ev.succeed(OsdReply(op_id, False, error=own_error.format(op_id=op_id), status=status))
        self._pending.clear()
        for envelope in self.fabric.drain_inbox(self.entity):
            if isinstance(envelope.payload, OsdOp):
                self._reset_reply(envelope.payload.op_id, envelope.src, status)

    def _demux(self) -> Generator:
        while True:
            envelope = yield self.fabric.recv(self.entity)
            payload = envelope.payload
            if isinstance(payload, OsdReply):
                if envelope.corrupted:
                    payload = OsdReply(
                        payload.op_id, False, error="reply payload failed checksum",
                        status=BlkStatus.MEDIUM, epoch=payload.epoch,
                    )
                pending = self._pending.pop(payload.op_id, None)
                if pending is not None:
                    pending.succeed(payload)
            elif envelope.corrupted and isinstance(payload, OsdOp):
                self.env.process(
                    self.reply_to(
                        envelope.src,
                        OsdReply(payload.op_id, False, error="request payload failed checksum",
                                 status=BlkStatus.MEDIUM),
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
        if not proc.ok and not isinstance(proc.value, ProcessKilled):
            raise proc.value

    def call(self, dst: str, op: OsdOp, timeout_ns: Optional[int] = None) -> Generator:
        ev = self.env.event()
        self._pending[op.op_id] = ev
        yield from self.fabric.send(self.entity, dst, op.wire_size(), op)
        if timeout_ns is None:
            return (yield ev)
        deadline = self.env.timeout(timeout_ns)
        results = yield self.env.any_of([ev, deadline])
        if ev in results:
            return results[ev]
        self._pending.pop(op.op_id, None)
        return OsdReply(op.op_id, False, error=f"timeout after {timeout_ns} ns",
                        status=BlkStatus.TIMEOUT)
