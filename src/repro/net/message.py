"""Network message type carried by links and the switch."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_msg_counter = itertools.count()


@dataclass
class Message:
    """A unit of transfer between two hosts.

    ``size`` is the wire size in bytes (payload + protocol overhead);
    ``payload`` carries arbitrary simulation objects (ops, replies).
    """

    src: str
    dst: str
    size: int
    payload: Any = None
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
    sent_at: int = -1
    delivered_at: int = -1

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"message size must be >= 0, got {self.size}")

    @property
    def latency_ns(self) -> int:
        """Delivery latency (valid once delivered)."""
        if self.sent_at < 0 or self.delivered_at < 0:
            return -1
        return self.delivered_at - self.sent_at
