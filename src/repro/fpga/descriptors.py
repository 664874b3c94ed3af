"""QDMA descriptors and descriptor rings.

A descriptor (128 bytes in DeLiBA-K's configuration, stored per queue in
UltraRAM) defines the five parameters of one DMA operation — source
address, destination address, length, control, and next-descriptor
pointer (paper Section IV-A) — and never carries payload itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from ..errors import FpgaError

#: Descriptor footprint (paper: "descriptors are 128 bytes in size").
DESCRIPTOR_BYTES = 128
#: Total descriptor memory per queue must stay under 64 kB (paper IV-A).
MAX_DESC_BYTES_PER_QUEUE = 64 * 1024
#: Descriptors per ring (512 x 128 B = 64 kB exactly).
RING_ENTRIES = MAX_DESC_BYTES_PER_QUEUE // DESCRIPTOR_BYTES

_desc_ids = itertools.count(1)


class DescriptorKind(Enum):
    """Which engine consumes the descriptor."""

    H2C = "h2c"
    C2H = "c2h"
    COMPLETION = "cmpt"


@dataclass
class Descriptor:
    """One DMA work item."""

    kind: DescriptorKind
    src_addr: int
    dst_addr: int
    length: int
    control: int = 0
    next_ptr: int = 0
    desc_id: int = field(default_factory=lambda: next(_desc_ids))
    payload: object = None  # simulation-side context (op, request, ...)

    def __post_init__(self):
        if self.length < 0:
            raise FpgaError(f"negative descriptor length {self.length}")


class DescriptorRing:
    """Host-memory ring of descriptors, hardware-consumed in order."""

    def __init__(self, entries: int = RING_ENTRIES):
        if entries < 2 or entries & (entries - 1):
            raise FpgaError(f"ring entries must be a power of two >= 2, got {entries}")
        self.entries = entries
        self._slots: list[Descriptor | None] = [None] * entries
        self.pidx = 0  # producer index (driver)
        self.cidx = 0  # consumer index (hardware)

    def __len__(self) -> int:
        return (self.pidx - self.cidx) % (self.entries * 2)

    @property
    def is_full(self) -> bool:
        """No room for another descriptor."""
        return len(self) == self.entries

    @property
    def is_empty(self) -> bool:
        """Nothing for hardware to fetch."""
        return self.pidx == self.cidx

    def post(self, descriptor: Descriptor) -> None:
        """Driver side: write one descriptor and bump the producer index."""
        if self.is_full:
            raise FpgaError(f"descriptor ring full ({self.entries} entries)")
        self._slots[self.pidx % self.entries] = descriptor
        self.pidx = (self.pidx + 1) % (self.entries * 2)

    def fetch(self, max_count: int) -> list[Descriptor]:
        """Hardware side: consume up to ``max_count`` descriptors in order."""
        out = []
        while not self.is_empty and len(out) < max_count:
            slot = self.cidx % self.entries
            out.append(self._slots[slot])
            self._slots[slot] = None
            self.cidx = (self.cidx + 1) % (self.entries * 2)
        return out
