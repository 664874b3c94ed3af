"""The datapath the three blk-mq drivers share below their front ends.

UIFD (DeLiBA-K), the NBD path (DeLiBA-1/2) and the stock RBD kernel
driver differ only in what a request crosses before it reaches the back
end: UIFD's descriptor build, NBD's user/kernel crossings, copies and
daemon queue, the stock driver's request setup.  Below that they run the
same stages, defined once here:

* the FPGA stage: a write's payload DMA to the card (H2C), then CRUSH
  placement and the RS encoder in the datapath, or DeLiBA-1's passive
  offload, where each placement is a host-initiated round trip;
* the host stage: software CRUSH placement per object at the profiled
  Table I cost and, when the client fans out itself, the RS encode;
* the image I/O under a ``fabric`` span, with a read's payload back to
  the host (C2H) on the FPGA path;
* one completion, which turns a failed back-end op into the request's
  block status.

Each driver keeps its own ``queue_rq`` and ``_handle`` (the per-layer
profiler in ``benchmarks/perf/layers.py`` wraps them on each class), and
``_handle`` runs the stages one after another.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..blk import IoOp, Request
from ..errors import DriverError, StorageError
from ..fpga.accelerators import Accelerator
from ..fpga.qdma import QdmaEngine, QueuePurpose, QueueSet
from ..host import HostKernel
from ..osd.osdmap import PoolType
from ..osd.rbd import RBDImage
from ..sim import NULL_METRICS, Environment
from ..units import us

#: Object-name hash + PG lookup on a warm placement cache.
PLACEMENT_HIT_NS = us(0.8)


class BlockDriver:
    """A blk-mq driver bound to one RBD image (one virtual disk).

    ``direct`` fixes the image's op topology for every backend op: True
    addresses each replica or shard from the client (DeLiBA's fan-out),
    False routes through the primary OSD like stock Ceph.  ``hardware``
    drivers need the QDMA engine and the CRUSH accelerator (and the RS
    accelerator on an EC pool), and claim one QDMA queue set.
    """

    #: Names the driver's ``driver.<name>.*`` metrics.
    name = "driver"
    #: The client caches placements per OSDMap epoch and pays the full
    #: CRUSH cost only on a miss (UIFD); otherwise every op runs CRUSH,
    #: the librbd-style path whose cost paper Table I profiles.
    placement_cached = False

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        image: RBDImage,
        config,
        direct: bool,
        hardware: bool = False,
        qdma: Optional[QdmaEngine] = None,
        crush_accel: Optional[Accelerator] = None,
        ec_accel: Optional[Accelerator] = None,
        function: int = 0,
        metrics=None,
    ):
        self.env = env
        self.kernel = kernel
        self.image = image
        self.config = config
        self.hardware = hardware
        self.qdma = qdma
        self.crush_accel = crush_accel
        self.ec_accel = ec_accel
        self.erasure = image.pool.pool_type == PoolType.ERASURE
        self.queue: Optional[QueueSet] = None
        if hardware:
            if qdma is None or crush_accel is None:
                raise DriverError(
                    f"hardware {self.name} needs a QDMA engine and a CRUSH accelerator"
                )
            if self.erasure and ec_accel is None:
                raise DriverError(f"hardware {self.name} on an EC pool needs the RS accelerator")
            purpose = QueuePurpose.ERASURE_CODING if self.erasure else QueuePurpose.REPLICATION
            self.queue = qdma.allocate_queue(purpose, function)
        image.direct = direct
        self.core = kernel.cpus.pick_core()
        self.requests_completed = 0
        metrics = metrics or NULL_METRICS
        self._m_requests = metrics.counter(f"driver.{self.name}.requests")
        self._m_request_ns = metrics.latency(f"driver.{self.name}.request_ns")
        self._m_placements = metrics.counter(f"driver.{self.name}.placements")
        self._m_errors = metrics.counter(f"driver.{self.name}.request_errors")

    def _objects(self, request: Request) -> range:
        """Indices of the RADOS objects the request spans."""
        offset = request.bios[0].offset
        size = self.image.object_size
        return range(offset // size, (offset + request.size - 1) // size + 1)

    # -- stages ------------------------------------------------------------------

    def _offload(self, request: Request, root, passive: bool = False) -> Generator:
        """FPGA stage: a write's payload goes to the card over H2C, then
        the CRUSH accelerator places every object (pipelined, one item
        each) and, for an EC write, the RS encoder streams the payload
        in 32 B beats.

        ``passive`` is DeLiBA-1's offload: each placement is a
        host-driven round trip (ioctl, argument marshalling, DMA both
        ways and an IRQ), the cost paper Section I criticizes.
        """
        env = self.env
        write = request.op == IoOp.WRITE
        if write:
            t0 = env.now
            yield from self.qdma.h2c_transfer(self.queue, request.size)
            root.record("qdma", "dma", t0, env.now, dir="h2c")
        t0 = env.now
        objects = len(self._objects(request))
        self._m_placements.add(objects)
        if passive:
            for _ in range(objects):
                yield from self.kernel.syscall(self.core)  # ioctl
                yield from self.core.run(us(5))  # driver marshalling
                yield from self.qdma.h2c_transfer(self.queue, 128)
                yield from self.crush_accel.process(1)
                yield from self.qdma.c2h_transfer(self.queue, 64)
                yield from self.kernel.interrupt(self.core)
        else:
            yield from self.crush_accel.process(objects)
        if self.erasure and write:
            yield from self.ec_accel.process(max(1, request.size // 32))
        root.record("accel", "compute", t0, env.now, objects=objects)

    def _place_on_host(self, request: Request, root, encode_ns: int = 0) -> Generator:
        """Host stage: software CRUSH placement for each object at
        ``config.sw_placement_ns`` (a warm hit pays
        :data:`PLACEMENT_HIT_NS` when :attr:`placement_cached`), then
        ``encode_ns`` per object for an EC write the client encodes.

        Placement warms the client's placement cache, so the data op
        that follows resolves the same mapping for free.
        """
        env = self.env
        t0 = env.now
        objects = self._objects(request)
        self._m_placements.add(len(objects))
        image = self.image
        client = image.client
        miss_ns = self.config.sw_placement_ns
        for idx in objects:
            client.compute_placement(image.pool, image.object_name(idx))
            # last_was_miss is True only when CRUSH actually ran: a hit in
            # the client's epoch-keyed object cache means the PG mapping
            # was already computed this epoch.
            if self.placement_cached and not client.last_was_miss:
                yield from self.core.run(PLACEMENT_HIT_NS)
            else:
                yield from self.core.run(miss_ns)
        if encode_ns and self.erasure and request.op == IoOp.WRITE:
            yield from self.core.run(encode_ns * len(objects))
        root.record("placement", "compute", t0, env.now, objects=len(objects))

    def _image_io(self, request: Request, root) -> Generator:
        """The image I/O under its ``fabric`` span; on the FPGA path a
        read's payload then returns to the host over C2H."""
        env = self.env
        offset = request.bios[0].offset
        fab = root.child("fabric", "net")
        ok = False
        try:
            if request.op == IoOp.WRITE:
                data = request.data() or b"\x00" * request.size
                yield from self.image.write(
                    offset, data, sequential=request.sequential, ctx=fab, tenant=request.tenant
                )
            else:
                yield from self.image.read(offset, request.size, ctx=fab, tenant=request.tenant)
            ok = True
        finally:
            fab.finish(ok=ok)
        if self.queue is not None and request.op == IoOp.READ:
            t0 = env.now
            yield from self.qdma.c2h_transfer(self.queue, request.size)
            root.record("qdma", "dma", t0, env.now, dir="c2h")

    def _complete(self, request: Request, t0: int, error: Optional[StorageError] = None) -> None:
        """Complete the request that the driver took at ``t0``.

        A failed back-end op never strands the request: its ``error``
        becomes the request's BLK_STS_* status, so the CQE carries a
        negative errno instead of the waiter hanging on an event nobody
        fires.
        """
        if error is not None:
            request.fail_from_exc(error)
            self._m_errors.add()
        now = self.env.now
        request.completed_at = now
        self.requests_completed += 1
        self._m_requests.add()
        self._m_request_ns.record(now - t0)
        request.completion.succeed(request)
