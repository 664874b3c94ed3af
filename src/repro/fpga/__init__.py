"""Simulated Alveo U280 FPGA: QDMA, accelerators, DFX, power, resources.

Models the in-network hardware half of DeLiBA-K (paper Section IV):
descriptor-ring QDMA over PCIe Gen3 x16, the six RTL kernels of Table I,
the CMAC + RTL TCP data plane, DFX partial reconfiguration of SLR0, and
the resource/power accounting behind Table III and Section V-c.
"""

from .accelerators import (
    HLS_CYCLE_FACTOR,
    HLS_LATENCY_FACTOR,
    Accelerator,
    AcceleratorSpec,
    KERNEL_SPECS,
    hls_variant,
    spec_by_name,
)
from .cmac import Cmac
from .descriptors import (
    DESCRIPTOR_BYTES,
    Descriptor,
    DescriptorKind,
    DescriptorRing,
    MAX_DESC_BYTES_PER_QUEUE,
    RING_ENTRIES,
)
from .device import (
    ACCEL_CLOCK_HZ,
    CMAC_CLOCK_HZ,
    QDMA_CLOCK_HZ,
    AlveoU280,
    U280_SLR0,
    U280_TOTAL,
)
from .dfx import (
    Bitstream,
    DfxController,
    ReconfigurableModule,
    ReconfigurablePartition,
    build_deliba_k_rms,
    pr_verify,
)
from .pcie import PCIE_GEN3X16_BW, PcieLink
from .power import (
    INFRA_FOOTPRINTS,
    PAPER_POWER_NO_PR_W,
    PAPER_POWER_WITH_PR_W,
    PowerModel,
    PowerReport,
    full_load_power,
)
from .qdma import (
    H2C_CONCURRENCY,
    MAX_QUEUE_SETS,
    QdmaEngine,
    QueuePurpose,
    QueueSet,
)
from .resources import RegionLedger, ResourceVector

__all__ = [
    "ACCEL_CLOCK_HZ",
    "Accelerator",
    "AcceleratorSpec",
    "AlveoU280",
    "Bitstream",
    "CMAC_CLOCK_HZ",
    "Cmac",
    "DESCRIPTOR_BYTES",
    "Descriptor",
    "DescriptorKind",
    "DescriptorRing",
    "DfxController",
    "H2C_CONCURRENCY",
    "HLS_CYCLE_FACTOR",
    "HLS_LATENCY_FACTOR",
    "INFRA_FOOTPRINTS",
    "KERNEL_SPECS",
    "MAX_DESC_BYTES_PER_QUEUE",
    "MAX_QUEUE_SETS",
    "PAPER_POWER_NO_PR_W",
    "PAPER_POWER_WITH_PR_W",
    "PCIE_GEN3X16_BW",
    "PcieLink",
    "PowerModel",
    "PowerReport",
    "QDMA_CLOCK_HZ",
    "QdmaEngine",
    "QueuePurpose",
    "QueueSet",
    "ReconfigurableModule",
    "ReconfigurablePartition",
    "RegionLedger",
    "ResourceVector",
    "RING_ENTRIES",
    "U280_SLR0",
    "U280_TOTAL",
    "build_deliba_k_rms",
    "full_load_power",
    "hls_variant",
    "pr_verify",
    "spec_by_name",
]
