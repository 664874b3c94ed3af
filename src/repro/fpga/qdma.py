"""QDMA (multi-queue DMA) engine model.

Implements the five modules of the paper's customized QDMA IP (Section
IV-A): Requester Request (RQ), Descriptor Engine (DE), Host-to-Card
(H2C), Card-to-Host (C2H), and Completion Engine (CE).  Up to 2,048
queue sets are supported, each a triple of rings (H2C descriptor ring,
C2H descriptor ring, C2H completion ring) individually typed for
replication or erasure-coding traffic, and assignable to PCIe physical
or virtual functions (SR-IOV) for multi-tenant use.

The data path streams over AXI at the configured bus width (256 bits
initially in DeLiBA-K, 512 bits provisioned; paper Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Generator

from ..errors import FpgaError
from ..sim import Environment, Resource
from ..units import transfer_ns
from .descriptors import DESCRIPTOR_BYTES, Descriptor, DescriptorKind, DescriptorRing
from .device import QDMA_CLOCK_HZ
from .pcie import PcieLink

#: Maximum queue sets (paper: "supports up to 2048 queue sets").
MAX_QUEUE_SETS = 2048
#: Concurrent I/Os the H2C engine sustains (paper: 256, 32 kB reorder buffer).
H2C_CONCURRENCY = 256
H2C_REORDER_BYTES = 32 * 1024
#: Cycles of engine work per descriptor.
DESC_PROC_CYCLES = 12
#: Completion entry written back to the host.
CMPT_BYTES = 16
#: Packet length limits (paper Section IV-B).
MIN_PACKET = 64
MAX_PACKET_STANDARD = 1518
MAX_PACKET_JUMBO = 9018


class QueuePurpose(Enum):
    """Traffic class a queue set is configured for."""

    REPLICATION = "replication"
    ERASURE_CODING = "erasure_coding"


@dataclass
class QueueSet:
    """One of the 2,048 queue sets: three rings + function binding."""

    qid: int
    purpose: QueuePurpose
    function: int = 0  # 0 = PF, >0 = SR-IOV VF number
    h2c_ring: DescriptorRing = field(default_factory=DescriptorRing)
    c2h_ring: DescriptorRing = field(default_factory=DescriptorRing)
    cmpt_ring: DescriptorRing = field(default_factory=DescriptorRing)
    descriptors_processed: int = 0
    bytes_moved: int = 0


class QdmaEngine:
    """The QDMA core shared by all queue sets on one card."""

    def __init__(
        self,
        env: Environment,
        pcie: PcieLink,
        data_bus_bits: int = 256,
        clock_hz: float = QDMA_CLOCK_HZ,
    ):
        if data_bus_bits not in (256, 512):
            raise FpgaError(f"data bus must be 256 or 512 bits, got {data_bus_bits}")
        self.env = env
        self.pcie = pcie
        self.data_bus_bits = data_bus_bits
        self.clock_hz = clock_hz
        #: AXI-stream bandwidth on the card: bus_bytes per cycle.
        self.axi_bw = (data_bus_bits / 8) * clock_hz
        self._queues: dict[int, QueueSet] = {}
        self._next_qid = 0
        self._h2c_engine = Resource(env, capacity=H2C_CONCURRENCY, name="qdma.h2c")
        self._c2h_engine = Resource(env, capacity=H2C_CONCURRENCY, name="qdma.c2h")
        self._desc_engine = Resource(env, capacity=4, name="qdma.de")
        self.completions_posted = 0
        metrics = env.metrics
        self._m_h2c_bytes = metrics.counter("fpga.qdma.h2c_bytes")
        self._m_c2h_bytes = metrics.counter("fpga.qdma.c2h_bytes")
        self._m_descriptors = metrics.counter("fpga.qdma.descriptors")
        self._m_completions = metrics.counter("fpga.qdma.completions")
        self._m_queues = metrics.gauge("fpga.qdma.queues_in_use")

    # -- queue management --------------------------------------------------------

    def allocate_queue(self, purpose: QueuePurpose, function: int = 0) -> QueueSet:
        """Claim a queue set (raises once all 2,048 are allocated)."""
        if len(self._queues) >= MAX_QUEUE_SETS:
            raise FpgaError(f"all {MAX_QUEUE_SETS} queue sets allocated")
        if function < 0:
            raise FpgaError(f"invalid function number {function}")
        qid = self._next_qid
        self._next_qid += 1
        qs = QueueSet(qid, purpose, function)
        self._queues[qid] = qs
        self._m_queues.set(len(self._queues))
        return qs

    def queue(self, qid: int) -> QueueSet:
        """Lookup."""
        if qid not in self._queues:
            raise FpgaError(f"unknown queue set {qid}")
        return self._queues[qid]

    @property
    def queues_in_use(self) -> int:
        """Allocated queue sets."""
        return len(self._queues)

    def queues_of_function(self, function: int) -> list[QueueSet]:
        """All queue sets bound to one PF/VF (SR-IOV tenant view)."""
        return [q for q in self._queues.values() if q.function == function]

    # -- engine cost helpers ---------------------------------------------------------

    def _engine_cycles_ns(self, cycles: int) -> int:
        return max(1, int(round(cycles * 1e9 / self.clock_hz)))

    def _axi_ns(self, nbytes: int) -> int:
        return transfer_ns(nbytes, self.axi_bw)

    # -- datapath operations -----------------------------------------------------------

    def h2c_transfer(self, qs: QueueSet, nbytes: int) -> Generator:
        """Process: move ``nbytes`` of payload host -> card via ``qs``.

        Full descriptor lifecycle: driver posts the descriptor + doorbell,
        the Descriptor Engine fetches it over PCIe, the H2C engine DMAs
        the payload and streams it onto the card AXI fabric.
        """
        if nbytes <= 0:
            raise FpgaError(f"transfer size must be > 0, got {nbytes}")
        desc = Descriptor(DescriptorKind.H2C, src_addr=0, dst_addr=0, length=nbytes)
        qs.h2c_ring.post(desc)
        yield from self.pcie.doorbell()
        # DE fetches the descriptor from host memory.
        yield from self._desc_engine.using(self._engine_cycles_ns(DESC_PROC_CYCLES))
        yield from self.pcie.h2c(DESCRIPTOR_BYTES)
        qs.h2c_ring.fetch(1)
        # H2C engine DMAs the payload and streams it out.
        req = yield from self._h2c_engine.acquire()
        try:
            yield from self.pcie.h2c(nbytes)
            yield self.env.timeout(self._axi_ns(nbytes))
        finally:
            self._h2c_engine.release(req)
        qs.descriptors_processed += 1
        qs.bytes_moved += nbytes
        self._m_descriptors.add()
        self._m_h2c_bytes.add(nbytes)

    def c2h_transfer(self, qs: QueueSet, nbytes: int) -> Generator:
        """Process: move ``nbytes`` card -> host and post a completion."""
        if nbytes <= 0:
            raise FpgaError(f"transfer size must be > 0, got {nbytes}")
        desc = Descriptor(DescriptorKind.C2H, src_addr=0, dst_addr=0, length=nbytes)
        qs.c2h_ring.post(desc)
        yield from self._desc_engine.using(self._engine_cycles_ns(DESC_PROC_CYCLES))
        req = yield from self._c2h_engine.acquire()
        try:
            yield self.env.timeout(self._axi_ns(nbytes))
            yield from self.pcie.c2h(nbytes)
        finally:
            self._c2h_engine.release(req)
        qs.c2h_ring.fetch(1)
        yield from self.post_completion(qs)
        qs.descriptors_processed += 1
        qs.bytes_moved += nbytes
        self._m_descriptors.add()
        self._m_c2h_bytes.add(nbytes)

    def post_completion(self, qs: QueueSet) -> Generator:
        """Process: CE writes a completion entry back to host memory."""
        cmpt = Descriptor(DescriptorKind.COMPLETION, 0, 0, CMPT_BYTES)
        qs.cmpt_ring.post(cmpt)
        yield from self.pcie.c2h(CMPT_BYTES)
        qs.cmpt_ring.fetch(1)
        self.completions_posted += 1
        self._m_completions.add()

    @staticmethod
    def validate_packet(nbytes: int, jumbo: bool = False) -> None:
        """Enforce the configured min/max packet length."""
        limit = MAX_PACKET_JUMBO if jumbo else MAX_PACKET_STANDARD
        if nbytes < MIN_PACKET:
            raise FpgaError(f"packet {nbytes} B below minimum {MIN_PACKET} B")
        if nbytes > limit:
            raise FpgaError(f"packet {nbytes} B above maximum {limit} B")
