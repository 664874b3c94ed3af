"""NBD-based driver path used by DeLiBA-1 and DeLiBA-2.

The earlier frameworks exposed the accelerated storage as a Network
Block Device: the kernel's NBD client forwards each request over a unix
socket to a **user-space daemon**, which drives the FPGA.  That design is
exactly what DeLiBA-K eliminated, and its costs are explicit here:

* user/kernel boundary crossings per request — six for DeLiBA-1, five
  for DeLiBA-2 (paper Section III);
* a data copy per crossing;
* a single-threaded daemon event loop that serializes request handling
  (the multi-tenancy blocker the paper names).

Placement/EC still run on the FPGA (that was DeLiBA-1/2's contribution);
DeLiBA-1 used the *kernel* TCP stack for OSD traffic while DeLiBA-2's
HLS TCP ran on the card — expressed through the client entity's fabric
stack profile, configured by the framework layer.
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
from ..sim import Environment, Resource
from ..units import us
from .placement_cost import charge_sw_placement


@dataclass
class NbdConfig:
    """Cost/behaviour knobs of the NBD path."""

    #: Full context switches per request (D1's six crossings; D2 kept
    #: two switches but five data copies).
    crossings: int = 6
    #: User/kernel data copies per request.
    copies: int = 6
    #: Daemon event-loop CPU per request (epoll wakeup, socket parse).
    daemon_cost_ns: int = us(2.5)
    #: Daemon worker threads (1 = the single-threaded loop of D1/D2).
    daemon_threads: int = 1
    #: Passive offload (DeLiBA-1): every accelerator use is a
    #: host-initiated round trip (ioctl + H2C args + C2H result) instead
    #: of an in-datapath stage.
    passive_offload: bool = False
    #: Software CRUSH placement per object op (no-FPGA baseline).
    sw_placement_ns: int = us(48)
    #: Software RS encode per object op (no-FPGA baseline, EC pools).
    sw_ec_encode_ns: int = us(65)


#: Paper-stated costs: D1 has six context switches per I/O (and passive
#: offload); D2 reduced to two switches but still copies five times.
DELIBA1_NBD = NbdConfig(crossings=6, copies=6, passive_offload=True)
DELIBA2_NBD = NbdConfig(crossings=2, copies=5)


class NbdDriver:
    """Kernel NBD client + user-space daemon + FPGA back end."""

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        image: RBDImage,
        config: Optional[NbdConfig] = None,
        qdma: Optional[QdmaEngine] = None,
        crush_accel: Optional[Accelerator] = None,
        ec_accel: Optional[Accelerator] = None,
        hardware: bool = True,
        shared_daemon: Optional[Resource] = None,
    ):
        if hardware:
            if qdma is None or crush_accel is None:
                raise DriverError("hardware NBD path needs the FPGA (QDMA + CRUSH accelerator)")
            if image.pool.pool_type == PoolType.ERASURE and ec_accel is None:
                raise DriverError("EC pool needs the RS accelerator")
        self.env = env
        self.kernel = kernel
        self.image = image
        self.config = config or NbdConfig()
        self.hardware = hardware
        # The stack's op topology: DeLiBA fan-out runs on the card, so
        # every backend op of this image addresses replicas/shards itself.
        image.direct = True
        self.qdma = qdma
        self.crush_accel = crush_accel
        self.ec_accel = ec_accel
        if hardware:
            purpose = (
                QueuePurpose.ERASURE_CODING
                if image.pool.pool_type == PoolType.ERASURE
                else QueuePurpose.REPLICATION
            )
            self.queue: Optional[QueueSet] = qdma.allocate_queue(purpose)
        else:
            self.queue = None
        self.core = kernel.cpus.pick_core()
        # Multi-tenant deployments of D1/D2 funnel every image through the
        # same user-space daemon — pass a shared Resource to model that.
        self._daemon = shared_daemon or Resource(
            env, capacity=self.config.daemon_threads, name="nbd.daemon"
        )
        self.requests_completed = 0

    def queue_rq(self, request: Request) -> None:
        """blk-mq driver entry point."""
        self.env.process(self._handle(request), name=f"nbd.rq{request.req_id}")

    def _handle(self, request: Request) -> Generator:
        root = request.obs_span
        t0 = self.env.now
        # Kernel NBD client -> socket -> daemon: context switches plus
        # payload copies (counts differ per generation; paper Section III).
        for _ in range(self.config.crossings):
            yield from self.kernel.context_switch(self.core)
        for _ in range(self.config.copies):
            yield from self.kernel.copy(self.core, request.size)
        root.record(
            "nbd", "ipc", t0, self.env.now,
            crossings=self.config.crossings, copies=self.config.copies,
        )
        # The single-threaded daemon serializes request handling.
        tq = self.env.now
        req = yield from self._daemon.acquire()
        root.record("daemon", "queue", tq, self.env.now)
        try:
            yield from self.core.run(self.config.daemon_cost_ns)
            first = request.bios[0].offset // self.image.object_size
            last = (request.bios[0].offset + request.size - 1) // self.image.object_size
            objects = last - first + 1
            if self.hardware:
                if request.op == IoOp.WRITE:
                    t1 = self.env.now
                    yield from self.qdma.h2c_transfer(self.queue, request.size)
                    root.record("qdma", "dma", t1, self.env.now, dir="h2c")
                t1 = self.env.now
                if self.config.passive_offload:
                    # D1: each placement is a host-driven FPGA round trip
                    # (ioctl + driver arg marshalling + DMA + IRQ), the
                    # "passive offload" cost Section I criticizes.
                    for _ in range(objects):
                        yield from self.kernel.syscall(self.core)  # ioctl
                        yield from self.core.run(us(5))  # driver marshalling
                        yield from self.qdma.h2c_transfer(self.queue, 128)
                        yield from self.crush_accel.process(1)
                        yield from self.qdma.c2h_transfer(self.queue, 64)
                        yield from self.kernel.interrupt(self.core)
                else:
                    yield from self.crush_accel.process(objects)
                if self.image.pool.pool_type == PoolType.ERASURE and request.op == IoOp.WRITE:
                    yield from self.ec_accel.process(max(1, request.size // 32))
                root.record("accel", "compute", t1, self.env.now, objects=objects)
            else:
                # No-FPGA baseline: placement (and EC) on the host CPU,
                # with the profiled cost paid on placement-cache misses.
                t1 = self.env.now
                yield from charge_sw_placement(
                    self.core, self.image, request, self.config.sw_placement_ns, cached=False
                )
                if self.image.pool.pool_type == PoolType.ERASURE and request.op == IoOp.WRITE:
                    yield from self.core.run(self.config.sw_ec_encode_ns * objects)
                root.record("placement", "compute", t1, self.env.now, objects=objects)
            fab = root.child("fabric", "net")
            ok = False
            try:
                yield from self._image_io(request, ctx=fab)
                ok = True
            finally:
                fab.finish(ok=ok)
            if self.hardware and request.op == IoOp.READ:
                t1 = self.env.now
                yield from self.qdma.c2h_transfer(self.queue, request.size)
                root.record("qdma", "dma", t1, self.env.now, dir="c2h")
        except StorageError as exc:
            request.fail_from_exc(exc)
        finally:
            self._daemon.release(req)
        # Completion notification back through the daemon socket.
        yield from self.kernel.context_switch(self.core)
        request.completed_at = self.env.now
        self.requests_completed += 1
        request.completion.succeed(request)

    def _image_io(self, request: Request, ctx=NULL_SPAN) -> Generator:
        offset = request.bios[0].offset
        if request.op == IoOp.WRITE:
            data = request.data() or b"\x00" * request.size
            yield from self.image.write(
                offset, data, sequential=request.sequential, ctx=ctx, tenant=request.tenant
            )
        else:
            yield from self.image.read(offset, request.size, ctx=ctx, tenant=request.tenant)
