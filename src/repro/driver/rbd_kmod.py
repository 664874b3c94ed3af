"""Stock Ceph RBD kernel driver (the pure-software comparison point).

Models ``drivers/block/rbd.c`` behaviour: requests map to RADOS object
ops in kernel space, placement is computed on the host CPU (the profiled
Table I software cost), writes route through the primary OSD which fans
out replicas / encodes EC shards, and all traffic uses kernel TCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..blk import IoOp, Request
from ..host import HostKernel
from ..osd.rbd import RBDImage
from ..sim import Environment
from ..units import us
from .placement_cost import charge_sw_placement


@dataclass
class RbdKmodConfig:
    """Cost knobs of the stock kernel driver."""

    #: Per-request driver CPU (img_request setup, obj_request mapping).
    driver_cost_ns: int = us(2.0)
    #: Software CRUSH placement per object op (Table I straw2 row).
    sw_placement_ns: int = us(48)


class RbdKmodDriver:
    """blk-mq driver backed by the in-kernel Ceph client."""

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        image: RBDImage,
        config: Optional[RbdKmodConfig] = None,
    ):
        self.env = env
        self.kernel = kernel
        self.image = image
        image.direct = False  # primary-mediated, like stock Ceph
        self.config = config or RbdKmodConfig()
        self.core = kernel.cpus.pick_core()
        self.requests_completed = 0

    def queue_rq(self, request: Request) -> None:
        """blk-mq driver entry point."""
        self.env.process(self._handle(request), name=f"rbd.rq{request.req_id}")

    def _handle(self, request: Request) -> Generator:
        yield from self.core.run(self.config.driver_cost_ns)
        yield from charge_sw_placement(
            self.core, self.image, request, self.config.sw_placement_ns, cached=False
        )
        offset = request.bios[0].offset
        if request.op == IoOp.WRITE:
            data = request.data() or b"\x00" * request.size
            yield from self.image.write(
                offset, data, sequential=request.sequential, tenant=request.tenant
            )
        else:
            yield from self.image.read(offset, request.size, tenant=request.tenant)
        request.completed_at = self.env.now
        self.requests_completed += 1
        request.completion.succeed(request)
