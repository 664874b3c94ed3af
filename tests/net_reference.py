"""Event-driven reference for the link and network model.

This is the model :class:`repro.net.Link` and :meth:`repro.net.Network.transfer`
replaced: each link is a one-slot :class:`~repro.sim.Resource` held for
the serialization time, and every message is a process that walks
uplink -> switch -> downlink.  It costs about nine more simulator events
per message than the analytic links, and the differential tests in
``test_net_express.py`` require both to produce the same delivery instants
and link counters.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import NetworkError
from repro.net import Message, Network
from repro.net.link import DEFAULT_MTU, ETHERNET_FRAME_OVERHEAD
from repro.sim import Environment, Resource
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
    ):
        if bandwidth_bps <= 0:
            raise NetworkError(f"link bandwidth must be > 0, got {bandwidth_bps}")
        self.env = env
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.mtu = mtu
        self.name = name
        self._channel = Resource(env, capacity=1, name=f"link:{name}")
        self.bytes_sent = 0
        self.frames_sent = 0
        self.up = True

    def wire_bytes(self, payload_bytes: int) -> int:
        frames = max(1, (payload_bytes + self.mtu - 1) // self.mtu)
        return payload_bytes + frames * ETHERNET_FRAME_OVERHEAD

    def serialization_ns(self, payload_bytes: int) -> int:
        return transfer_ns(self.wire_bytes(payload_bytes), self.bandwidth_bps)

    def transmit(self, message: Message) -> Generator:
        """Process: occupy the link for serialization, then propagate."""
        ser = self.serialization_ns(message.size)
        yield from self._channel.using(ser)
        self.bytes_sent += self.wire_bytes(message.size)
        self.frames_sent += max(1, (message.size + self.mtu - 1) // self.mtu)
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
            link = ReferenceLink(self.env, self.bandwidth_bps, self.hop_ns, self.mtu, f"{name}-{side}")
            setattr(host, f"{side}link", link)
        return host

    def transfer(self, message, on_delivered):
        raise NotImplementedError("the reference network only sends messages as processes")

    def send(self, message: Message) -> Generator:
        """Process: move a message src -> switch -> dst and deliver it."""
        src = self.host(message.src)
        dst = self.host(message.dst)
        message.sent_at = self.env.now
        yield from src.uplink.transmit(message)
        yield self.env.timeout(self.switch_ns)
        yield from dst.downlink.transmit(message)
        message.delivered_at = self.env.now
        self.messages_delivered += 1
        self._m_messages.add()
        self._m_bytes.add(message.size)
        self._m_delivery_ns.record(message.delivered_at - message.sent_at)
        for tap in self.taps:
            tap(message)
        yield dst.inbox.put(message)
