"""Event-driven reference for the link and network model.

This is the model :class:`repro.net.Link` and :meth:`repro.net.Network.transfer`
replaced: each link is a one-slot :class:`~repro.sim.Resource` held for
the serialization time, and every message is a process that walks
uplink -> switch -> downlink, is counted and tapped as it arrives, and
triggers its event after the receiver's RX cost.  It costs about ten
more simulator events per message than the analytic links.
:class:`ReferenceWireFabric` is the fabric's cross-host path as it was
before routes and the merged receive event.  The differential tests in
``test_net_express.py`` require both models to produce the same delivery
instants, link counters and tapped frames.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import NetworkError
from repro.net import Message, Network
from repro.net.link import DEFAULT_MTU, ETHERNET_FRAME_OVERHEAD
from repro.osd.fabric import Fabric
from repro.sim import Environment, Event, Resource
from repro.units import transfer_ns


class ReferenceLink:
    """Unidirectional link: a FIFO resource held while a message serializes."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float,
        propagation_ns: int,
        mtu: int = DEFAULT_MTU,
        name: str = "",
        host: str = "",
    ):
        if bandwidth_bps <= 0:
            raise NetworkError(f"link bandwidth must be > 0, got {bandwidth_bps}")
        self.env = env
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.mtu = mtu
        self.name = name
        self.host = host
        self._channel = Resource(env, capacity=1, name=f"link:{name}")
        self.bytes_sent = 0
        self.frames_sent = 0
        self.up = True

    def wire_bytes(self, payload_bytes: int) -> int:
        frames = max(1, (payload_bytes + self.mtu - 1) // self.mtu)
        return payload_bytes + frames * ETHERNET_FRAME_OVERHEAD

    def serialization_ns(self, payload_bytes: int) -> int:
        return transfer_ns(self.wire_bytes(payload_bytes), self.bandwidth_bps)

    def transmit(self, size: int) -> Generator:
        """Process: occupy the link for serialization, then propagate."""
        ser = self.serialization_ns(size)
        yield from self._channel.using(ser)
        self.bytes_sent += self.wire_bytes(size)
        self.frames_sent += max(1, (size + self.mtu - 1) // self.mtu)
        yield self.env.timeout(self.propagation_ns)

    @property
    def queue_len(self) -> int:
        return self._channel.queue_len


class ReferenceNetwork(Network):
    """A star network whose messages each run as a process over
    :class:`ReferenceLink` links."""

    def add_host(self, name: str):
        host = super().add_host(name)
        for side in ("up", "down"):
            link = ReferenceLink(
                self.env, self.bandwidth_bps, self.hop_ns, self.mtu, f"{name}-{side}", name
            )
            setattr(host, f"{side}link", link)
        return host

    def transfer(self, uplink, downlink, size: int, event: Event, rx_ns: int = 0) -> None:
        self.env.process(self._carry(uplink, downlink, size, event, rx_ns))

    def _carry(self, uplink, downlink, size, event, rx_ns) -> Generator:
        """Process: move ``size`` bytes src -> switch -> dst, then
        trigger ``event`` after the receiver's RX cost."""
        sent_at = self.env.now
        yield from uplink.transmit(size)
        yield self.env.timeout(self.switch_ns)
        yield from downlink.transmit(size)
        self.messages_delivered += 1
        self._m_messages.add()
        self._m_bytes.add(size)
        self._m_delivery_ns.record(self.env.now - sent_at)
        message = Message(uplink.host, downlink.host, size)
        message.sent_at, message.delivered_at = sent_at, self.env.now
        for tap in self.taps:
            tap(message)
        event.succeed(delay=rx_ns)


class ReferenceWireFabric(Fabric):
    """Cross-host fabric messages as separate steps: each entity's host,
    stack and links are looked up per message, the wire reports the
    arrival, and the receiver's RX cost is a timeout of its own.  Only
    the duplicate fault is modeled, and no entities share a host."""

    def send(self, src: str, dst: str, nbytes: int, payload) -> Generator:
        src_host, dst_host = self.host_of(src), self.host_of(dst)
        assert src_host != dst_host, "the reference carries cross-host messages only"
        action = self.faults.classify() if self.faults is not None else None
        yield self.env.timeout(self._entity_stack[src].tx_ns(nbytes))
        uplink = self.network.host(src_host).uplink
        downlink = self.network.host(dst_host).downlink
        rx_ns = self._entity_stack[dst].rx_ns(nbytes)
        arrived = self.env.event()
        self.network.transfer(uplink, downlink, nbytes, arrived)
        if action == "duplicate":
            copy = self.env.event()
            self.network.transfer(uplink, downlink, nbytes, copy)
            copy.callbacks.append(
                lambda _event: self.env.process(self._receive(rx_ns, src, dst, nbytes, payload))
            )
        yield arrived
        yield from self._receive(rx_ns, src, dst, nbytes, payload)

    def _receive(self, rx_ns, src, dst, nbytes, payload) -> Generator:
        yield self.env.timeout(rx_ns)
        self._deliver(src, dst, nbytes, payload, False)
