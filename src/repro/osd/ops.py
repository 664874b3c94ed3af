"""RADOS-style operation and reply messages."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..obs.context import NULL_SPAN
from ..status import BlkStatus
from .qos import QosTag

#: Serialized header bytes per op/reply (MOSDOp envelope).
OP_HEADER_BYTES = 200

_op_ids = itertools.count(1)


class OpKind(Enum):
    """Operation types understood by an OSD."""

    READ = "read"  # replicated read from primary
    WRITE = "write"  # replicated write via primary (primary fans out)
    WRITE_DIRECT = "write_direct"  # one replica written directly (DeLiBA client fan-out)
    REP_WRITE = "rep_write"  # primary -> replica sub-op
    SHARD_WRITE = "shard_write"  # one EC shard written directly
    SHARD_READ = "shard_read"  # one EC shard read
    EC_WRITE = "ec_write"  # EC write via primary (primary encodes + fans out)
    EC_READ = "ec_read"  # EC read via primary (primary gathers + decodes)
    DELETE = "delete"
    PING = "ping"  # liveness probe (heartbeats)
    PG_LIST = "pg_list"  # peering: list one PG's store keys + versions
    PULL = "pull"  # recovery: read a full store key (data + version)
    PUSH = "push"  # recovery: version-guarded whole-object install


@dataclass
class OsdOp:
    """A client (or peer) request to one OSD."""

    kind: OpKind
    pool_id: int
    object_name: str
    offset: int = 0
    length: int = 0
    #: Payload; a PUSH may carry an extent image (``ObjectStore.image``),
    #: whose ``len()`` is its logical size like a dense payload's.
    data: Optional[bytes] = None
    #: Acting set computed by the sender (Ceph clients address by map).
    #: EC ops keep its CRUSH holes, so a position is a shard rank.
    acting: tuple[int, ...] = ()
    #: Shard index for EC shard ops.
    shard: int = -1
    #: Write-pattern hint for the media model.
    sequential: bool = False
    epoch: int = 0
    #: Mutation version (PUSH carries the version the data was pulled
    #: at; replica sub-ops carry the parent op's id so every copy of one
    #: logical write records the same version).  0 = use the op's own id.
    version: int = 0
    #: PG index for PG_LIST peering ops.
    pg: int = -1
    #: Causal span of the attempt leg carrying this op (repro.obs);
    #: travels with the message so the serving OSD can attach its
    #: queue/service sub-spans.  Never serialized or compared.
    obs_span: object = field(default=NULL_SPAN, repr=False, compare=False)
    #: QoS identity (tenant + service class + dmClock rho/delta).  Inert
    #: until a cluster enables QoS; excluded from repr/compare so the
    #: tag never leaks into digests.  Not counted in wire_size (a few
    #: piggybacked bytes, dmClock-style).
    qos: Optional[QosTag] = field(default=None, repr=False, compare=False)
    op_id: int = field(default_factory=lambda: next(_op_ids))
    #: The serving OSD's service span under ``obs_span`` (not a field:
    #: the daemon sets it, its op handlers read it).
    obs_service = NULL_SPAN

    def wire_size(self) -> int:
        """Bytes this op occupies on the network."""
        return OP_HEADER_BYTES + (len(self.data) if self.data is not None else 0)


@dataclass
class OsdReply:
    """Completion sent back to the requester."""

    op_id: int
    ok: bool
    #: Read data; a PULL reply carries the key's extent image.
    data: Optional[bytes] = None
    error: str = ""
    epoch: int = 0
    #: Kernel-style status carried alongside the error string; failed
    #: replies default to IOERR unless the sender classified them
    #: (TIMEOUT, TRANSPORT, MEDIUM).
    status: BlkStatus = BlkStatus.OK
    #: Version of the returned object (PULL replies).
    version: int = 0
    #: Peering listing for PG_LIST replies: store key -> (version, size).
    listing: Optional[dict[str, tuple[int, int]]] = None
    #: PUSH replies: the install was skipped because local data is newer.
    stale: bool = False
    #: dmClock phase feedback (``repro.osd.qos.PHASE_*``): which phase
    #: the serving OSD dispatched the op in; 0 when QoS is off.
    qos_phase: int = 0

    #: Serialized bytes per peering listing entry (key + version + size).
    LISTING_ENTRY_BYTES = 64

    def __post_init__(self):
        if not self.ok and self.status is BlkStatus.OK:
            self.status = BlkStatus.IOERR

    def wire_size(self) -> int:
        """Bytes this reply occupies on the network."""
        size = OP_HEADER_BYTES + (len(self.data) if self.data is not None else 0)
        if self.listing is not None:
            size += self.LISTING_ENTRY_BYTES * len(self.listing)
        return size
