"""CRUSH: controlled, scalable, decentralized placement of replicated data.

Full implementation of the placement algorithm DeLiBA-K offloads to FPGA:
the rjenkins1 hash family, all five bucket types (uniform, list, tree,
straw, straw2 with the fixed-point log table), weighted hierarchies,
rules (firstn/indep, chooseleaf), and the object->PG->OSD pipeline.
"""

from .buckets import (
    Bucket,
    ListBucket,
    Straw2Bucket,
    StrawBucket,
    TreeBucket,
    UniformBucket,
    make_bucket,
)
from .hashing import hash32, hash32_2, hash32_3, hash32_4, str_hash
from .ln_table import crush_ln, ln_of_uniform_u16
from .map import CrushMap, Device, build_flat_cluster, build_two_level_cluster
from .placement import PlacementEngine, object_to_pg, pg_seed, stable_mod
from .rules import CrushRule, Mapper, Step, StepOp, erasure_rule, replicated_rule
from .types import CRUSH_ITEM_NONE, WEIGHT_ONE, BucketAlg, DeviceClass, weight_float, weight_fp

__all__ = [
    "Bucket",
    "BucketAlg",
    "CRUSH_ITEM_NONE",
    "CrushMap",
    "CrushRule",
    "Device",
    "DeviceClass",
    "ListBucket",
    "Mapper",
    "PlacementEngine",
    "Step",
    "StepOp",
    "Straw2Bucket",
    "StrawBucket",
    "TreeBucket",
    "UniformBucket",
    "WEIGHT_ONE",
    "build_flat_cluster",
    "build_two_level_cluster",
    "crush_ln",
    "erasure_rule",
    "hash32",
    "hash32_2",
    "hash32_3",
    "hash32_4",
    "ln_of_uniform_u16",
    "make_bucket",
    "object_to_pg",
    "pg_seed",
    "replicated_rule",
    "stable_mod",
    "str_hash",
    "weight_float",
    "weight_fp",
]
