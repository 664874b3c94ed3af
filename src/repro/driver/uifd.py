"""UIFD: the DeLiBA-K Unified I/O FPGA Driver.

The in-kernel driver developed from scratch for DeLiBA-K (paper Section
III-B): it receives requests from the DMQ block layer, talks to the
U280 through QDMA descriptor rings, and contains the DeLiBA-K-specific
Ceph-RBD virtual-disk function (with SR-IOV virtual functions for VM
tenants).

Two operating modes:

* **hardware** — the datapath mode: payload moves over QDMA, CRUSH
  placement and replication/EC fan-out run on the FPGA's RTL
  accelerators, and the FPGA TCP stack talks to the OSDs directly
  (client ops use ``direct=True``: one hop per replica/shard);
* **software** — the Fig. 3/4 baseline: same driver structure, but
  placement runs on the host CPU at the profiled kernel cost and ops
  route through the primary OSD over kernel TCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..blk import IoOp, Request
from ..errors import DriverError, StorageError
from ..fpga.accelerators import Accelerator
from ..fpga.qdma import QdmaEngine, QueuePurpose, QueueSet
from ..host import HostKernel
from ..obs.context import NULL_SPAN
from ..osd.osdmap import PoolType
from ..osd.rbd import RBDImage
from ..sim import NULL_METRICS, Environment
from ..units import us
from .placement_cost import charge_sw_placement


@dataclass
class UifdConfig:
    """Cost/behaviour knobs of the driver."""

    #: Fixed driver CPU per request (descriptor build, doorbell, unmap).
    driver_cost_ns: int = us(1.2)
    #: Software CRUSH placement cost per object op (Table I, straw2 row)
    #: — charged only in software mode; hardware mode uses the accelerator.
    sw_placement_ns: int = us(48)
    #: Software RS encode cost per object op for EC pools.  UIFD's
    #: from-scratch kernel path uses a vectorized GF(2^8) kernel, far
    #: cheaper than the legacy 65 us client profile of Table I (which the
    #: NBD-era stacks still pay).
    sw_ec_encode_ns: int = us(18)
    #: Completion delivery: True = polled CQ (DeLiBA-K), False = MSI-X IRQ.
    polled_completion: bool = True
    #: Software mode: True keeps DeLiBA's client-side fan-out (the client
    #: computes placement + EC and addresses every replica/shard itself);
    #: False routes through the primary OSD like stock Ceph.
    client_fanout: bool = True


class UifdDriver:
    """One driver instance bound to one RBD image (one virtual disk)."""

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        image: RBDImage,
        config: Optional[UifdConfig] = None,
        qdma: Optional[QdmaEngine] = None,
        crush_accel: Optional[Accelerator] = None,
        ec_accel: Optional[Accelerator] = None,
        function: int = 0,
        hardware: bool = True,
        metrics=None,
    ):
        self.env = env
        self.kernel = kernel
        metrics = metrics or NULL_METRICS
        self._m_requests = metrics.counter("driver.uifd.requests")
        self._m_request_ns = metrics.latency("driver.uifd.request_ns")
        self._m_placements = metrics.counter("driver.uifd.placements")
        self._m_errors = metrics.counter("driver.uifd.request_errors")
        self.image = image
        self.config = config or UifdConfig()
        self.hardware = hardware
        # The stack's op topology, fixed for every backend op of this
        # image: the FPGA always fans out; software mode follows
        # ``client_fanout``.
        image.direct = hardware or self.config.client_fanout
        self.function = function
        self.qdma = qdma
        self.crush_accel = crush_accel
        self.ec_accel = ec_accel
        if hardware:
            if qdma is None or crush_accel is None:
                raise DriverError("hardware mode needs a QDMA engine and a CRUSH accelerator")
            purpose = (
                QueuePurpose.ERASURE_CODING
                if image.pool.pool_type == PoolType.ERASURE
                else QueuePurpose.REPLICATION
            )
            self.queue: Optional[QueueSet] = qdma.allocate_queue(purpose, function)
            if image.pool.pool_type == PoolType.ERASURE and ec_accel is None:
                raise DriverError("hardware mode on an EC pool needs the RS accelerator")
        else:
            self.queue = None
        self.core = kernel.cpus.pick_core()
        self.requests_completed = 0

    # -- blk-mq driver contract ---------------------------------------------------

    def queue_rq(self, request: Request) -> None:
        """Accept one request from the block layer (non-blocking)."""
        self.env.process(self._handle(request), name=f"uifd.rq{request.req_id}")

    def _handle(self, request: Request) -> Generator:
        t0 = self.env.now
        root = request.obs_span
        yield from self.core.run(self.config.driver_cost_ns)
        # Driver CPU: descriptor build, doorbell, unmap.
        root.record("uifd", "driver", t0, self.env.now)
        try:
            if self.hardware:
                yield from self._handle_hw(request, root)
            else:
                yield from self._handle_sw(request, root)
        except StorageError as exc:
            # Never strand the request: complete it with a BLK_STS_*
            # status so the CQE surfaces a negative errno instead of the
            # waiter hanging on an event nobody will fire.
            request.fail_from_exc(exc)
            self._m_errors.add()
        request.completed_at = self.env.now
        self.requests_completed += 1
        self._m_requests.add()
        self._m_request_ns.record(self.env.now - t0)
        request.completion.succeed(request)

    # -- hardware datapath ------------------------------------------------------------

    def _objects_touched(self, request: Request) -> int:
        """How many RADOS objects the request spans (placement ops needed)."""
        first = request.bios[0].offset // self.image.object_size
        last = (request.bios[0].offset + request.size - 1) // self.image.object_size
        return last - first + 1

    def _handle_hw(self, request: Request, ctx=NULL_SPAN) -> Generator:
        is_ec = self.image.pool.pool_type == PoolType.ERASURE
        if request.op == IoOp.WRITE:
            # Payload DMA to the card before the FPGA fans it out.
            t0 = self.env.now
            yield from self.qdma.h2c_transfer(self.queue, request.size)
            ctx.record("qdma", "dma", t0, self.env.now, dir="h2c")
        # In-datapath CRUSH placement: pipelined, one item per object.
        t0 = self.env.now
        objects = self._objects_touched(request)
        self._m_placements.add(objects)
        yield from self.crush_accel.process(objects)
        if is_ec and request.op == IoOp.WRITE:
            # RS encoder streams the payload in 32 B beats.
            yield from self.ec_accel.process(max(1, request.size // 32))
        ctx.record("accel", "compute", t0, self.env.now, objects=objects)
        fab = ctx.child("fabric", "net")
        ok = False
        try:
            yield from self._image_io(request, ctx=fab)
            ok = True
        finally:
            fab.finish(ok=ok)
        if request.op == IoOp.READ:
            t0 = self.env.now
            yield from self.qdma.c2h_transfer(self.queue, request.size)
            ctx.record("qdma", "dma", t0, self.env.now, dir="c2h")
        if not self.config.polled_completion:
            yield from self.kernel.interrupt(self.core)

    # -- software baseline --------------------------------------------------------------

    def _handle_sw(self, request: Request, ctx=NULL_SPAN) -> Generator:
        objects = self._objects_touched(request)
        t0 = self.env.now
        self._m_placements.add(objects)
        yield from charge_sw_placement(
            self.core, self.image, request, self.config.sw_placement_ns
        )
        fanout = self.config.client_fanout
        if fanout and self.image.pool.pool_type == PoolType.ERASURE and request.op == IoOp.WRITE:
            # Client-side encode (with direct=False the primary OSD
            # encodes and charges its own cost instead).
            yield from self.core.run(self.config.sw_ec_encode_ns * objects)
        ctx.record("placement", "compute", t0, self.env.now, objects=objects)
        fab = ctx.child("fabric", "net")
        ok = False
        try:
            yield from self._image_io(request, ctx=fab)
            ok = True
        finally:
            fab.finish(ok=ok)

    # -- common ---------------------------------------------------------------------------

    def _image_io(self, request: Request, ctx=NULL_SPAN) -> Generator:
        offset = request.bios[0].offset
        if request.op == IoOp.WRITE:
            data = request.data()
            if data is None:
                data = b"\x00" * request.size
            yield from self.image.write(
                offset, data, sequential=request.sequential, ctx=ctx, tenant=request.tenant
            )
        else:
            yield from self.image.read(offset, request.size, ctx=ctx, tenant=request.tenant)
