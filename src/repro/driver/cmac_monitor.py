"""CMAC-only network monitoring (paper Section III-B).

"In addition to the QDMA interface, the UIFD provides access to the
CMAC block on the FPGA.  This is particularly useful in scenarios like
network monitoring in data centers, where data volumes are small, and
the system may rely solely on the CMAC interface without needing the
QDMA."

:class:`CmacNetworkMonitor` implements that scenario: a mirror tap on
the switch feeds frame headers into the CMAC, and the monitor keeps
per-flow statistics (frames, bytes, rates) without any descriptor/DMA
machinery in the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import DriverError
from ..fpga.cmac import Cmac
from ..net.message import Message
from ..net.topology import Network
from ..sim import Environment
from ..units import SEC

#: Only frame headers are mirrored to the monitor (sFlow-style).
MIRROR_HEADER_BYTES = 128


@dataclass
class FlowStats:
    """Aggregate counters for one (src, dst) flow."""

    src: str
    dst: str
    frames: int = 0
    bytes: int = 0
    first_seen_ns: int = -1
    last_seen_ns: int = -1

    def rate_mb_s(self) -> float:
        """Observed MB/s between first and last frame."""
        span = self.last_seen_ns - self.first_seen_ns
        if span <= 0:
            return 0.0
        return (self.bytes / 1e6) / (span / SEC)


class CmacNetworkMonitor:
    """Passive per-flow monitor fed by a switch mirror port."""

    def __init__(self, env: Environment, network: Network, cmac: Optional[Cmac] = None):
        self.env = env
        self.network = network
        self.cmac = cmac or Cmac(env)
        self.flows: dict[tuple[str, str], FlowStats] = {}
        self._attached = False

    def attach(self) -> None:
        """Start mirroring switch traffic into the CMAC."""
        if self._attached:
            raise DriverError("monitor already attached")
        self.network.taps.append(self._on_frame)
        self._attached = True

    def detach(self) -> None:
        """Stop mirroring."""
        if not self._attached:
            raise DriverError("monitor not attached")
        self.network.taps.remove(self._on_frame)
        self._attached = False

    def _on_frame(self, message: Message) -> None:
        """Count a frame the switch forwards, at the instant it is
        delivered."""
        key = (message.src, message.dst)
        stats = self.flows.get(key)
        if stats is None:
            stats = self.flows[key] = FlowStats(message.src, message.dst)
            stats.first_seen_ns = message.delivered_at
        stats.frames += 1
        stats.bytes += message.size
        stats.last_seen_ns = message.delivered_at
        # Header mirror flows through the CMAC RX path (charged on the
        # card's clock; small by design — that's the point of the mode).
        self.env.process(
            self.cmac.receive(min(MIRROR_HEADER_BYTES, max(64, message.size))),
            name="cmac.mirror",
        )

    # -- reporting ----------------------------------------------------------------

    @property
    def total_frames(self) -> int:
        """Frames observed across all flows."""
        return sum(f.frames for f in self.flows.values())

    def top_talkers(self, n: int = 5) -> list[FlowStats]:
        """The ``n`` flows with the most bytes."""
        return sorted(self.flows.values(), key=lambda f: f.bytes, reverse=True)[:n]

    def report(self) -> str:
        """Human-readable flow table."""
        lines = [f"{'flow':34s} {'frames':>8s} {'bytes':>12s} {'MB/s':>8s}"]
        for stats in self.top_talkers(n=len(self.flows)):
            lines.append(
                f"{stats.src + ' -> ' + stats.dst:34s} {stats.frames:8d} "
                f"{stats.bytes:12d} {stats.rate_mb_s():8.1f}"
            )
        return "\n".join(lines)
