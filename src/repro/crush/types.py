"""Shared CRUSH constants and small value types."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

#: Weights are 16.16 fixed point, like Ceph's crush map.
WEIGHT_ONE = 0x10000

#: Sentinel returned when a choose step finds no item.
CRUSH_ITEM_NONE = 0x7FFFFFFF

#: Maximum descent depth (guards against malformed cyclic maps).
MAX_DEPTH = 32


def weight_fp(weight: float) -> int:
    """Convert a float weight (1.0 == one unit, e.g. 1 TiB) to 16.16 fixed point."""
    if weight < 0:
        raise ValueError(f"CRUSH weights must be >= 0, got {weight}")
    return int(round(weight * WEIGHT_ONE))


def weight_float(fp: int) -> float:
    """Convert a 16.16 fixed-point weight back to float."""
    return fp / WEIGHT_ONE


class BucketAlg(IntEnum):
    """Bucket selection algorithms (numbering follows Ceph)."""

    UNIFORM = 1
    LIST = 2
    TREE = 3
    STRAW = 4
    STRAW2 = 5


class DeviceClass(IntEnum):
    """Storage media class of a device (used for rule filtering)."""

    HDD = 0
    SSD = 1
    NVME = 2
    SMR = 3


@dataclass(frozen=True)
class BucketType:
    """A level of the CRUSH hierarchy (e.g. 1=host, 2=rack, 10=root)."""

    type_id: int
    name: str


#: Conventional hierarchy levels used by the cluster builders.
TYPE_DEVICE = BucketType(0, "osd")
TYPE_HOST = BucketType(1, "host")
TYPE_RACK = BucketType(2, "rack")
TYPE_ROOT = BucketType(10, "root")
