"""Framework generation configs: software Ceph, DeLiBA-1, -2, and -K.

Each :class:`FrameworkConfig` states *structurally* how a generation is
built — which host API, block layer, driver, TCP stack, and accelerator
implementation — so performance differences in the benchmarks emerge
from the composition rather than per-experiment tuning.

Calibration notes
-----------------
* The testbed (2 servers x 16 OSDs on measured 9.8 Gb/s 10 GbE) means a
  replicated pool of size 2 with host-level fault domains: one copy per
  server, matching what the wire can carry at the paper's large-block
  throughput numbers.
* Software placement/EC costs are the per-op profiled times of paper
  Table I; hardware costs come from the QDMA/accelerator models.
* DeLiBA-1 is a *passive* offload (Section I): each placement requires a
  host-initiated FPGA round trip, while D2/DK run the accelerators in
  the datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..blk import DMQ_CONFIG, BlkMqConfig
from ..errors import BenchmarkError
from ..net.stack import HLS_TCP, KERNEL_TCP, RTL_TCP, StackProfile


@dataclass(frozen=True)
class FrameworkConfig:
    """One storage-stack generation."""

    name: str
    label: str
    #: Host API: 'sync', 'libaio', 'posix-aio', 'mmap', or 'uring'.
    api: str
    #: Driver: 'rbd_kmod', 'nbd', or 'uifd'.
    driver: str
    #: FPGA datapath present?
    hardware: bool
    #: TCP stack used for the client's OSD traffic.
    client_stack: StackProfile
    #: Accelerator implementation ('rtl' or 'hls'); None = software.
    accel_impl: Optional[str]
    #: Block-layer shape.
    blk: BlkMqConfig = field(default_factory=BlkMqConfig)
    #: NBD user/kernel crossings (NBD driver only).
    nbd_crossings: int = 0
    #: Passive offload: host-initiated FPGA round trip per placement (D1).
    passive_offload: bool = False
    #: io_uring engine parameters (uring API only).
    uring_instances: int = 3
    uring_batch: int = 16
    uring_sqpoll: bool = True
    #: Classic IRQ-driven completions instead of polling (ablation knob).
    uring_interrupt: bool = False
    #: Pin each instance's submission thread to a dedicated core.
    uring_pin_cores: bool = True

    def __post_init__(self):
        if self.api not in ("sync", "libaio", "posix-aio", "mmap", "uring"):
            raise BenchmarkError(f"unknown api {self.api!r}")
        if self.driver not in ("rbd_kmod", "nbd", "uifd"):
            raise BenchmarkError(f"unknown driver {self.driver!r}")
        if self.hardware and self.accel_impl is None:
            raise BenchmarkError(f"{self.name}: hardware mode needs an accelerator impl")


#: Pure software Ceph: sync API, stock elevator, stock RBD kernel driver,
#: kernel TCP, primary-mediated replication.
SOFTWARE_CEPH = FrameworkConfig(
    name="software-ceph",
    label="SW Ceph",
    api="sync",
    driver="rbd_kmod",
    hardware=False,
    client_stack=KERNEL_TCP,
    accel_impl=None,
)

#: DeLiBA-1 (D1): read/write API + NBD daemon (6 crossings) + HLS
#: accelerators invoked passively + kernel TCP for OSD traffic.
DELIBA1 = FrameworkConfig(
    name="deliba1",
    label="D1",
    api="sync",
    driver="nbd",
    hardware=True,
    client_stack=KERNEL_TCP,
    accel_impl="hls",
    nbd_crossings=6,
    passive_offload=True,
)

#: DeLiBA-2 (D2): read/write API + NBD daemon (5 crossings) + HLS
#: accelerators in the datapath + HLS TCP on the FPGA.
DELIBA2 = FrameworkConfig(
    name="deliba2",
    label="D2",
    api="sync",
    driver="nbd",
    hardware=True,
    client_stack=HLS_TCP,
    accel_impl="hls",
    nbd_crossings=5,
)

#: DeLiBA-2 software baseline (Fig. 3/4 comparison): the D2 host stack
#: (NBD daemon + read/write API) without the FPGA — placement and EC on
#: the host CPU, kernel TCP.
DELIBA2_SW = FrameworkConfig(
    name="deliba2-sw",
    label="D2 (sw)",
    api="sync",
    driver="nbd",
    hardware=False,
    client_stack=KERNEL_TCP,
    accel_impl=None,
    nbd_crossings=5,
)

#: DeLiBA-K software baseline: io_uring + DMQ + UIFD (improved Ceph-RBD
#: kernel path), placement/EC on the host CPU, kernel TCP.
DELIBAK_SW = FrameworkConfig(
    name="delibak-sw",
    label="D-K (sw)",
    api="uring",
    driver="uifd",
    hardware=False,
    client_stack=KERNEL_TCP,
    accel_impl=None,
    blk=DMQ_CONFIG,
)

#: DeLiBA-K (D3): io_uring (3 SQPOLL instances, pinned) + DMQ + UIFD +
#: QDMA + RTL accelerators + RTL TCP on the FPGA.
DELIBAK = FrameworkConfig(
    name="delibak",
    label="D-K",
    api="uring",
    driver="uifd",
    hardware=True,
    client_stack=RTL_TCP,
    accel_impl="rtl",
    blk=DMQ_CONFIG,
)

FRAMEWORKS: dict[str, FrameworkConfig] = {
    cfg.name: cfg
    for cfg in (SOFTWARE_CEPH, DELIBA1, DELIBA2, DELIBA2_SW, DELIBAK_SW, DELIBAK)
}


def framework_by_name(name: str) -> FrameworkConfig:
    """Lookup; raises with the known names on error."""
    if name not in FRAMEWORKS:
        raise BenchmarkError(f"unknown framework {name!r}; know {sorted(FRAMEWORKS)}")
    return FRAMEWORKS[name]
