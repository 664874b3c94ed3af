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
* **software** — the Fig. 3/4 baseline: same driver structure and the
  same client-side fan-out, but placement and EC encode run on the host
  CPU at their profiled kernel costs and ops cross kernel TCP.
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
from ..sim import Environment
from ..units import us
from .datapath import BlockDriver


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
    #: Hardware mode only: in software mode there is no QDMA completion
    #: ring to poll or to raise an interrupt, and the reply reaches the
    #: driver through the client's TCP stack, whose receive cost the
    #: fabric charges.  So both values complete a software-mode request
    #: at the same instant.
    polled_completion: bool = True


class UifdDriver(BlockDriver):
    """One driver instance bound to one RBD image (one virtual disk)."""

    name = "uifd"
    #: UIFD keeps a per-epoch placement cache.
    placement_cached = True

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
        super().__init__(
            env, kernel, image, config or UifdConfig(), direct=True,
            hardware=hardware, qdma=qdma, crush_accel=crush_accel, ec_accel=ec_accel,
            function=function, metrics=metrics,
        )

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
        error = None
        try:
            if self.hardware:
                yield from self._offload(request, root)
            else:
                yield from self._place_on_host(request, root, self.config.sw_ec_encode_ns)
            yield from self._image_io(request, root)
            if self.hardware and not self.config.polled_completion:
                yield from self.kernel.interrupt(self.core)
        except StorageError as exc:
            error = exc
        self._complete(request, t0, error)
