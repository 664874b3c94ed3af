"""Star topology: hosts connected through one switch.

Models the paper's testbed fabric: every host has a full-duplex 10 GbE
port (uplink + downlink :class:`Link`), and the switch adds a fixed
store-and-forward latency.  :meth:`Network.transfer` carries a message
between two links with one timeout to the switch and one event at the
receiver; :meth:`Network.send` wraps it as a process that carries a
:class:`Message` and returns it stamped with its send and delivery
instants.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import NetworkError
from ..sim import NULL_METRICS, Environment, Event
from ..units import gbps, us
from .link import DEFAULT_MTU, Link
from .message import Message

#: Raw bandwidth measured by iperf on the paper's 10 GbE network.
PAPER_BANDWIDTH_BPS = gbps(9.8)
#: One-way propagation+PHY latency per hop (host->switch or switch->host).
DEFAULT_HOP_NS = us(1.0)
#: Switch store-and-forward latency.
DEFAULT_SWITCH_NS = us(1.5)


class Host:
    """A network endpoint: its uplink to the switch and its downlink back."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.uplink: Optional[Link] = None
        self.downlink: Optional[Link] = None

    def __repr__(self) -> str:
        return f"<Host {self.name!r}>"


class _InFlight:
    """A message between its offer to the network and the switch."""

    __slots__ = ("uplink", "downlink", "size", "event", "rx_ns", "sent_at", "start", "behind",
                 "rank")

    def __init__(self, uplink: Link, downlink: Link, size: int, event: Event, rx_ns: int,
                 sent_at: int, start: int):
        self.uplink = uplink
        self.downlink = downlink
        self.size = size
        #: Triggered ``rx_ns`` after the message reaches the receiver.
        self.event = event
        self.rx_ns = rx_ns
        self.sent_at = sent_at
        #: When it starts serializing on its uplink.
        self.start = start
        #: The message it queued behind on its uplink (until forwarded).
        self.behind: Optional[_InFlight] = None
        #: Forwarding sequence number at the switch.
        self.rank = -1

    def switch_order(self) -> tuple:
        """Sort key among messages due at the switch in one nanosecond
        (equal keys keep offer order)."""
        return (self.start, -1 if self.behind is None else self.behind.rank)


class Network:
    """A switch plus its attached hosts."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = PAPER_BANDWIDTH_BPS,
        hop_ns: int = DEFAULT_HOP_NS,
        switch_ns: int = DEFAULT_SWITCH_NS,
        mtu: int = DEFAULT_MTU,
        metrics=None,
    ):
        self.env = env
        metrics = metrics or NULL_METRICS
        self._m_messages = metrics.counter("net.messages")
        self._m_bytes = metrics.counter("net.bytes")
        self._m_delivery_ns = metrics.latency("net.delivery_ns")
        self.bandwidth_bps = bandwidth_bps
        self.hop_ns = hop_ns
        self.switch_ns = switch_ns
        self.mtu = mtu
        self.hosts: dict[str, Host] = {}
        #: Messages forwarded onto their receiver's downlink: from then
        #: on, nothing stops them arriving.
        self.messages_delivered = 0
        #: Switch taps (port mirroring): called with a :class:`Message`
        #: for every message the switch forwards, stamped with the
        #: instant it will reach its receiver.  Used by CMAC-based
        #: network monitors.
        self.taps: list = []
        #: Messages due at the switch, by arrival instant, in offer order.
        self._due: dict[int, list[_InFlight]] = {}
        #: The message last offered on each uplink.
        self._last_offered: dict[Link, _InFlight] = {}
        self._forwarded = 0
        #: The host each link belongs to (for taps).
        self._link_host: dict[Link, str] = {}

    def add_host(self, name: str) -> Host:
        """Attach a host with fresh up/down links."""
        if name in self.hosts:
            raise NetworkError(f"duplicate host {name!r}")
        host = Host(self.env, name)
        host.uplink = Link(self.env, self.bandwidth_bps, self.hop_ns, self.mtu, name=f"{name}-up")
        host.downlink = Link(self.env, self.bandwidth_bps, self.hop_ns, self.mtu, name=f"{name}-down")
        self._link_host[host.uplink] = self._link_host[host.downlink] = name
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Lookup; raises on unknown host."""
        if name not in self.hosts:
            raise NetworkError(f"unknown host {name!r}")
        return self.hosts[name]

    def transfer(
        self, uplink: Link, downlink: Link, size: int, event: Event, rx_ns: int = 0
    ) -> None:
        """Carry ``size`` bytes over two links; trigger ``event`` at the receiver.

        The sender's uplink is reserved now and one timeout runs to the
        switch; there the receiver's downlink is reserved, so frames
        reaching a busy receiver queue in arrival order, and ``event``
        is scheduled for the arrival instant plus ``rx_ns`` (the
        receiver's stack cost).  Serialization happens on both links,
        so incast congestion at a busy receiver and fan-out congestion
        at a busy sender both emerge naturally.  No process is involved:
        the transfer completes whatever happens to its sender.
        """
        now = self.env.now
        free_at = uplink.free_at
        entry = _InFlight(uplink, downlink, size, event, rx_ns, now,
                          free_at if free_at > now else now)
        last = self._last_offered.get(uplink)
        if last is not None and free_at >= now:
            entry.behind = last
        self._last_offered[uplink] = entry
        due = uplink.reserve(size) + self.switch_ns
        self._due.setdefault(due, []).append(entry)
        self.env.timeout(due - now).callbacks.append(self._at_switch)

    def _at_switch(self, _event) -> None:
        """Forward one message due at the switch now onto its downlink.

        Each message due at an instant schedules one call, and each call
        forwards the first message still due, in switch order: earliest
        start of uplink serialization first; at equal starts, messages
        that found their uplink idle (in offer order) before those queued
        behind another message (in the order those were forwarded).  The
        order decides who waits when several messages reach one busy
        downlink in the same nanosecond.  Once forwarded, nothing stops a
        message arriving, so it is counted as delivered and shown to the
        taps here.
        """
        now = self.env.now
        due = self._due[now]
        if len(due) == 1:
            entry = due.pop()
            del self._due[now]
        else:
            entry = min(due, key=_InFlight.switch_order)
            due.remove(entry)
        entry.rank = self._forwarded
        self._forwarded += 1
        entry.behind = None
        size = entry.size
        arrival = entry.downlink.reserve(size)
        self.messages_delivered += 1
        self._m_messages.add()
        self._m_bytes.add(size)
        self._m_delivery_ns.record(arrival - entry.sent_at)
        if self.taps:
            message = Message(self._link_host[entry.uplink], self._link_host[entry.downlink], size)
            message.sent_at = entry.sent_at
            message.delivered_at = arrival
            for tap in self.taps:
                tap(message)
        entry.event.succeed(delay=arrival - now + entry.rx_ns)

    def send(self, message: Message) -> Generator:
        """Process: carry ``message`` to its destination host and return it.

        ``sent_at`` and ``delivered_at`` are stamped on the way.
        """
        dst = self.host(message.dst)
        delivered = self.env.event()
        message.sent_at = self.env.now
        self.transfer(self.host(message.src).uplink, dst.downlink, message.size, delivered)
        yield delivered
        message.delivered_at = self.env.now
        return message

    def utilization_report(self, elapsed_ns: int) -> dict[str, float]:
        """Per-link achieved Gb/s over ``elapsed_ns`` (wire bytes incl. framing).

        Lets benches show where the fabric saturates (e.g. the client
        uplink at large sequential writes).
        """
        if elapsed_ns <= 0:
            raise NetworkError(f"elapsed_ns must be > 0, got {elapsed_ns}")
        report = {}
        for host in self.hosts.values():
            for link in (host.uplink, host.downlink):
                report[link.name] = link.bytes_sent * 8 / elapsed_ns  # bits/ns == Gb/s
        return report

    def min_latency_ns(self, nbytes: int) -> int:
        """Best-case one-way delivery time for an ``nbytes`` message."""
        probe = self.hosts[next(iter(self.hosts))] if self.hosts else None
        if probe is None:
            raise NetworkError("network has no hosts")
        ser = probe.uplink.serialization_ns(nbytes)
        return 2 * ser + 2 * self.hop_ns + self.switch_ns
