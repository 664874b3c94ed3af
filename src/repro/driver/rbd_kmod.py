"""Stock Ceph RBD kernel driver (the pure-software comparison point).

Models ``drivers/block/rbd.c`` behaviour: requests map to RADOS object
ops in kernel space, placement is computed on the host CPU (the profiled
Table I software cost), writes route through the primary OSD which fans
out replicas / encodes EC shards, and all traffic uses kernel TCP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..blk import Request
from ..errors import StorageError
from ..host import HostKernel
from ..osd.rbd import RBDImage
from ..sim import Environment
from ..units import us
from .datapath import BlockDriver


@dataclass
class RbdKmodConfig:
    """Cost knobs of the stock kernel driver."""

    #: Per-request driver CPU (img_request setup, obj_request mapping).
    driver_cost_ns: int = us(2.0)
    #: Software CRUSH placement per object op (Table I straw2 row).
    sw_placement_ns: int = us(48)


class RbdKmodDriver(BlockDriver):
    """blk-mq driver backed by the in-kernel Ceph client."""

    name = "rbd"

    def __init__(
        self,
        env: Environment,
        kernel: HostKernel,
        image: RBDImage,
        config: Optional[RbdKmodConfig] = None,
    ):
        # Primary-mediated, like stock Ceph: the primary OSD replicates
        # or encodes, so the client does no encode of its own.
        super().__init__(env, kernel, image, config or RbdKmodConfig(), direct=False)

    def queue_rq(self, request: Request) -> None:
        """blk-mq driver entry point."""
        self.env.process(self._handle(request), name=f"rbd.rq{request.req_id}")

    def _handle(self, request: Request) -> Generator:
        t0 = self.env.now
        root = request.obs_span
        yield from self.core.run(self.config.driver_cost_ns)
        error = None
        try:
            yield from self._place_on_host(request, root)
            yield from self._image_io(request, root)
        except StorageError as exc:
            error = exc
        self._complete(request, t0, error)
