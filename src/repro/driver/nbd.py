"""NBD-based driver path used by DeLiBA-1 and DeLiBA-2.

The earlier frameworks exposed the accelerated storage as a Network
Block Device: the kernel's NBD client forwards each request over a unix
socket to a **user-space daemon**, which drives the FPGA.  That design is
exactly what DeLiBA-K eliminated, and its costs are explicit here:

* user/kernel boundary crossings per request — six for DeLiBA-1, five
  for DeLiBA-2 as the framework stacks configure them;
* user/kernel payload copies per request — six in both generations'
  stacks (paper Section III gives DeLiBA-2 two switches and five
  copies, :data:`DELIBA2_NBD`);
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

from ..blk import Request
from ..errors import StorageError
from ..fpga.accelerators import Accelerator
from ..fpga.qdma import QdmaEngine
from ..host import HostKernel
from ..osd.rbd import RBDImage
from ..sim import Environment, Resource
from ..units import us
from .datapath import BlockDriver


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


class NbdDriver(BlockDriver):
    """Kernel NBD client + user-space daemon + FPGA back end."""

    name = "nbd"

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
        config = config or NbdConfig()
        # DeLiBA fan-out runs on the card, so every backend op of this
        # image addresses replicas/shards itself.
        super().__init__(
            env, kernel, image, config, direct=True, hardware=hardware,
            qdma=qdma, crush_accel=crush_accel, ec_accel=ec_accel,
        )
        # Multi-tenant deployments of D1/D2 funnel every image through the
        # same user-space daemon — pass a shared Resource to model that.
        self._daemon = shared_daemon or Resource(
            env, capacity=config.daemon_threads, name="nbd.daemon"
        )

    def queue_rq(self, request: Request) -> None:
        """blk-mq driver entry point."""
        self.env.process(self._handle(request), name=f"nbd.rq{request.req_id}")

    def _handle(self, request: Request) -> Generator:
        root = request.obs_span
        config = self.config
        t0 = self.env.now
        # Kernel NBD client -> socket -> daemon: context switches plus
        # payload copies (counts differ per generation; paper Section III).
        for _ in range(config.crossings):
            yield from self.kernel.context_switch(self.core)
        for _ in range(config.copies):
            yield from self.kernel.copy(self.core, request.size)
        root.record(
            "nbd", "ipc", t0, self.env.now, crossings=config.crossings, copies=config.copies,
        )
        # The single-threaded daemon serializes request handling.
        tq = self.env.now
        slot = yield from self._daemon.acquire()
        root.record("daemon", "queue", tq, self.env.now)
        error = None
        try:
            yield from self.core.run(config.daemon_cost_ns)
            if self.hardware:
                yield from self._offload(request, root, passive=config.passive_offload)
            else:
                yield from self._place_on_host(request, root, config.sw_ec_encode_ns)
            yield from self._image_io(request, root)
        except StorageError as exc:
            error = exc
        finally:
            self._daemon.release(slot)
        # Completion notification back through the daemon socket.
        yield from self.kernel.context_switch(self.core)
        self._complete(request, t0, error)
