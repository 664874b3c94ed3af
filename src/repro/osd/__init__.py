"""Simulated Ceph substrate: OSD daemons, pools, RADOS client, RBD.

Implements the distributed-storage system DeLiBA accelerates: CRUSH
placement, primary-copy replication, erasure-coded pools with real
Reed-Solomon shards, device media models, failure/recovery, and the
virtual block device (RBD) the block layer sits on.
"""

from .client import RadosClient
from .faults import FaultInjector
from .scrub import Inconsistency, ScrubReport, Scrubber
from .cluster import CephCluster, ClusterSpec, build_cluster
from .fabric import Envelope, Fabric, MessageFaults, Messenger
from .monitor import Monitor
from .policy import DEFAULT_POLICY, OpPolicy
from .objects import ExtentImage, ObjectStore
from .ops import OP_HEADER_BYTES, OpKind, OsdOp, OsdReply
from .osd import OsdConfig, OsdDaemon, base_object_name, shard_object_name
from .osdmap import OSDMap, OsdState, Pool, PoolType
from .qos import (
    CLASS_CLIENT,
    CLASS_RECOVERY,
    CLASS_SCRUB,
    CLASS_SYSTEM,
    MClockQueue,
    OsdQosScheduler,
    QosConfig,
    QosManager,
    QosSpec,
    QosTag,
    TenantTracker,
)
from .recovery import PGInfo, PGState, RecoveryConfig, RecoveryManager
from .rbd import DEFAULT_OBJECT_SIZE, Extent, RBDImage
from .storage import HDD, NVME_SSD, SATA_SSD, MediaProfile, StorageDevice
from .wal import DurabilityConfig, WalRecord, WalReplayStats, WriteAheadLog

__all__ = [
    "CLASS_CLIENT",
    "CLASS_RECOVERY",
    "CLASS_SCRUB",
    "CLASS_SYSTEM",
    "CephCluster",
    "MClockQueue",
    "OsdQosScheduler",
    "QosConfig",
    "QosManager",
    "QosSpec",
    "QosTag",
    "TenantTracker",
    "FaultInjector",
    "Inconsistency",
    "ScrubReport",
    "Scrubber",
    "ClusterSpec",
    "DEFAULT_OBJECT_SIZE",
    "DEFAULT_POLICY",
    "DurabilityConfig",
    "Envelope",
    "ExtentImage",
    "MessageFaults",
    "OpPolicy",
    "Extent",
    "Fabric",
    "HDD",
    "MediaProfile",
    "Messenger",
    "Monitor",
    "NVME_SSD",
    "OP_HEADER_BYTES",
    "OSDMap",
    "ObjectStore",
    "OpKind",
    "OsdConfig",
    "OsdDaemon",
    "OsdOp",
    "OsdReply",
    "OsdState",
    "PGInfo",
    "PGState",
    "Pool",
    "PoolType",
    "RecoveryConfig",
    "RecoveryManager",
    "RBDImage",
    "RadosClient",
    "SATA_SSD",
    "StorageDevice",
    "WalRecord",
    "WalReplayStats",
    "WriteAheadLog",
    "base_object_name",
    "build_cluster",
    "shard_object_name",
]
