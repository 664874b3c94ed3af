"""Point-to-point link model: serialization + propagation + FIFO contention.

A link is a single-server queue: frames serialize one at a time at the
link's bandwidth (this is what caps throughput at the measured 9.8 Gb/s
of the paper's 10 GbE fabric), then experience fixed propagation delay.
Ethernet framing overhead is charged per MTU-sized frame.

The queue is analytic rather than event-driven: the link remembers the
instant its last reserved message finishes serializing (``free_at``),
so a reservation is one arithmetic step and costs no simulator event.
Its cost per payload size is memoized at the bandwidth in force.
"""

from __future__ import annotations

from collections import deque

from ..errors import NetworkError
from ..sim import Environment
from ..units import transfer_ns

#: Ethernet per-frame overhead: preamble+SFD (8) + header (14) + FCS (4) + IFG (12).
ETHERNET_FRAME_OVERHEAD = 38
#: Default payload MTU.
DEFAULT_MTU = 1500
#: Jumbo-frame MTU (the paper's cluster supports up to 9018-byte frames).
JUMBO_MTU = 9000
#: Payload sizes a link remembers the cost of; a full memo starts afresh.
COST_MEMO_MAX = 1024


class Link:
    """Unidirectional link with bandwidth, propagation delay, and a queue."""

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
        if propagation_ns < 0:
            raise NetworkError(f"propagation delay must be >= 0, got {propagation_ns}")
        if mtu < 64:
            raise NetworkError(f"mtu must be >= 64, got {mtu}")
        self.env = env
        self._bandwidth_bps = bandwidth_bps
        #: payload bytes -> (wire bytes, frames, serialization ns) at
        #: the bandwidth in force.
        self._cost: dict[int, tuple[int, int, int]] = {}
        self.propagation_ns = propagation_ns
        self.mtu = mtu
        self.name = name
        #: Instant the last reserved message finishes serializing.
        self.free_at = 0
        #: Reservations still serializing, oldest first:
        #: ``(start, end, wire bytes, frames)``.  Settled into the
        #: counters once ``end`` has passed.
        self._inflight: deque = deque()
        self._bytes_sent = 0
        self._frames_sent = 0
        #: Administrative state: messages offered to a down link are lost
        #: (the fabric checks before transmitting).  Flap via set_up().
        self.up = True
        #: Down transitions seen (chaos link-flap accounting).
        self.flaps = 0

    @property
    def bandwidth_bps(self) -> float:
        """Bandwidth in bytes/sec.  A change applies to messages offered
        after it (see :meth:`reserve`)."""
        return self._bandwidth_bps

    @bandwidth_bps.setter
    def bandwidth_bps(self, bandwidth_bps: float) -> None:
        self._bandwidth_bps = bandwidth_bps
        self._cost = {}

    def set_up(self, up: bool) -> None:
        """Raise or lower the link (chaos link flaps).

        In-flight frames finish serializing — the flap takes effect for
        traffic offered after the transition, like pulling a cable
        between frames.
        """
        if up != self.up:
            self.up = up
            if not up:
                self.flaps += 1

    def _frames(self, payload_bytes: int) -> int:
        return max(1, (payload_bytes + self.mtu - 1) // self.mtu)

    def wire_bytes(self, payload_bytes: int) -> int:
        """Bytes on the wire including per-frame Ethernet overhead."""
        return payload_bytes + self._frames(payload_bytes) * ETHERNET_FRAME_OVERHEAD

    def serialization_ns(self, payload_bytes: int) -> int:
        """Time to clock the message onto the wire."""
        return transfer_ns(self.wire_bytes(payload_bytes), self.bandwidth_bps)

    def reserve(self, payload_bytes: int) -> int:
        """Queue a message for serialization now; return its far-end arrival.

        The message serializes FIFO behind every earlier reservation, at
        the bandwidth in force now (a later bandwidth change does not
        touch it), then propagates.  The returned instant is when its
        last bit reaches the far end.
        """
        now = self.env.now
        inflight = self._inflight
        if inflight and inflight[0][1] <= now:
            self._settle(now)
        cost = self._cost.get(payload_bytes)
        if cost is None:
            cost = self._price(payload_bytes)
        wire, frames, ser = cost
        start = self.free_at if self.free_at > now else now
        end = start + ser
        self.free_at = end
        inflight.append((start, end, wire, frames))
        return end + self.propagation_ns

    def _price(self, payload_bytes: int) -> tuple[int, int, int]:
        """Work out and memoize ``payload_bytes``' cost on this link."""
        if len(self._cost) >= COST_MEMO_MAX:
            self._cost = {}
        frames = self._frames(payload_bytes)
        wire = payload_bytes + frames * ETHERNET_FRAME_OVERHEAD
        cost = self._cost[payload_bytes] = (wire, frames, transfer_ns(wire, self._bandwidth_bps))
        return cost

    def _settle(self, now: int) -> None:
        """Count every reservation that finished serializing by ``now``."""
        inflight = self._inflight
        while inflight and inflight[0][1] <= now:
            _start, _end, wire, frames = inflight.popleft()
            self._bytes_sent += wire
            self._frames_sent += frames

    @property
    def bytes_sent(self) -> int:
        """Wire bytes (framing included) fully serialized so far."""
        self._settle(self.env.now)
        return self._bytes_sent

    @property
    def frames_sent(self) -> int:
        """Frames fully serialized so far."""
        self._settle(self.env.now)
        return self._frames_sent

    @property
    def queue_len(self) -> int:
        """Messages waiting to serialize."""
        now = self.env.now
        self._settle(now)
        return sum(1 for start, _end, _wire, _frames in self._inflight if start > now)
