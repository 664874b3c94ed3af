"""Block-layer I/O units: bios and requests.

A :class:`Bio` is one contiguous block I/O as issued by an API engine; a
:class:`Request` is what the block layer hands to a driver — one or more
merged bios.  Sectors are 512 bytes, as in Linux.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..errors import BlockLayerError
from ..obs.context import NULL_SPAN
from ..status import BlkStatus

SECTOR = 512

_req_ids = itertools.count(1)


class IoOp(Enum):
    """Direction of a block I/O."""

    READ = "read"
    WRITE = "write"


@dataclass
class Bio:
    """One contiguous block I/O."""

    op: IoOp
    sector: int
    size: int  # bytes
    data: Optional[bytes] = None
    #: Access-pattern hint propagated to the media model.
    sequential: bool = False
    #: Tenant identity for multi-tenant QoS; "" = untagged.  Travels
    #: down the whole stack (request -> driver -> RADOS op) so the OSD
    #: scheduler can attribute the IO.
    tenant: str = ""
    #: Root of the op's causal span tree (not a field: traced stacks set
    #: it per bio, untraced bios share the class-level null span).
    obs_span = NULL_SPAN

    def __post_init__(self):
        if self.sector < 0:
            raise BlockLayerError(f"negative sector {self.sector}")
        if self.size <= 0 or self.size % SECTOR:
            raise BlockLayerError(f"bio size must be a positive sector multiple, got {self.size}")
        if self.op == IoOp.WRITE and self.data is not None and len(self.data) != self.size:
            raise BlockLayerError(f"data length {len(self.data)} != bio size {self.size}")

    @property
    def end_sector(self) -> int:
        """First sector after this bio."""
        return self.sector + self.size // SECTOR

    @property
    def offset(self) -> int:
        """Byte offset on the device."""
        return self.sector * SECTOR


@dataclass
class Request:
    """A (possibly merged) request queued to a driver."""

    bios: list[Bio]
    req_id: int = field(default_factory=lambda: next(_req_ids))
    submitted_at: int = -1
    dispatched_at: int = -1
    completed_at: int = -1
    error: str = ""
    #: Request-wide status set by the driver on completion (BLK_STS_*).
    status: BlkStatus = BlkStatus.OK
    #: Per-bio statuses, parallel to ``bios``; empty means every bio
    #: shares the request-wide ``status`` (the common, fault-free case).
    bio_statuses: list = field(default_factory=list)
    #: Completion event, created by the block layer at submit time and
    #: fired by the driver (value = the request itself).
    completion: Optional[object] = None
    #: Causal span tree of the request: its head bio's root (not a
    #: field: traced stacks set it, untraced requests share the null span).
    obs_span = NULL_SPAN

    def __post_init__(self):
        if not self.bios:
            raise BlockLayerError("request needs at least one bio")
        first = self.bios[0]
        if any(b.op != first.op for b in self.bios):
            raise BlockLayerError("cannot mix read and write bios in one request")

    def fail(self, status: BlkStatus, error: str = "") -> None:
        """Mark the whole request failed (every bio inherits ``status``)."""
        self.status = status
        if error and not self.error:
            self.error = error

    def fail_bio(self, index: int, status: BlkStatus) -> None:
        """Mark one merged bio failed (partial-failure completion).

        The request-wide status becomes the worst per-bio status, so
        callers that only look at ``request.status`` still see a failure.
        """
        if not self.bio_statuses:
            self.bio_statuses = [BlkStatus.OK] * len(self.bios)
        self.bio_statuses[index] = self.bio_statuses[index].combine(status)
        self.status = self.status.combine(status)

    def fail_extents(self, extent_errors) -> None:
        """Map failed device byte extents onto the bios they overlap.

        ``extent_errors`` is an iterable of ``(offset, length, status,
        message)``; bios outside every failed extent stay OK — the
        partial-failure semantics of a merged multi-bio request.
        """
        for offset, length, status, message in extent_errors:
            end = offset + length
            hit = False
            for i, b in enumerate(self.bios):
                if b.offset < end and offset < b.offset + b.size:
                    self.fail_bio(i, status)
                    hit = True
            if not hit:
                # Extent maps to no bio (shouldn't happen): fail globally
                # rather than swallow the error.
                self.fail(status)
            if message and not self.error:
                self.error = message

    def fail_from_exc(self, exc: Exception) -> None:
        """Map a storage exception onto this request (driver completion).

        Honors ``exc.status`` and per-extent ``exc.extent_errors`` when
        present (duck-typed so the block layer needs no osd imports).
        """
        extents = getattr(exc, "extent_errors", ())
        if extents:
            self.fail_extents(extents)
            if not self.error:
                self.error = str(exc)
        else:
            self.fail(getattr(exc, "status", BlkStatus.IOERR), str(exc))

    def status_for(self, bio: Bio) -> BlkStatus:
        """Completion status of one merged bio (identity lookup).

        Bios are mutable (unhashable), so this scans by identity — merged
        requests hold only a handful of bios.
        """
        if self.bio_statuses:
            for i, b in enumerate(self.bios):
                if b is bio:
                    return self.bio_statuses[i]
        return self.status

    @property
    def op(self) -> IoOp:
        """Direction (uniform across merged bios)."""
        return self.bios[0].op

    @property
    def tenant(self) -> str:
        """Tenant identity (uniform across merged bios — enforced by
        :meth:`can_merge`)."""
        return self.bios[0].tenant

    @property
    def sector(self) -> int:
        """Starting sector."""
        return self.bios[0].sector

    @property
    def size(self) -> int:
        """Total bytes."""
        return sum(b.size for b in self.bios)

    @property
    def sequential(self) -> bool:
        """Pattern hint for the whole request.

        True when the head bio advertises a sequential stream, or when
        merging built an LBA-contiguous multi-bio run — a random-write
        burst that happened to land back-to-back *is* sequential at the
        device, whatever each bio's own hint said.  (Reporting only the
        head bio's hint starved the drivers' striping heuristics and the
        cache tier's sequential cutoff of real merge information.)
        """
        bios = self.bios
        if bios[0].sequential or len(bios) == 1:
            return bios[0].sequential
        return all(
            bios[i].end_sector == bios[i + 1].sector for i in range(len(bios) - 1)
        )

    def data(self) -> Optional[bytes]:
        """Concatenated write payload (None for reads or absent data)."""
        if self.op == IoOp.READ:
            return None
        parts = [b.data for b in self.bios]
        if any(p is None for p in parts):
            return None
        return b"".join(parts)

    def can_merge(self, bio: Bio) -> bool:
        """Back-merge test: same op, same tenant, physically contiguous.

        Cross-tenant merging would let one tenant's bytes ride another's
        QoS identity, corrupting per-tenant accounting at the OSD."""
        return (
            bio.op == self.op
            and bio.tenant == self.bios[0].tenant
            and self.bios[-1].end_sector == bio.sector
        )

    def merge(self, bio: Bio) -> None:
        """Append a contiguous bio (caller must check :meth:`can_merge`)."""
        if not self.can_merge(bio):
            raise BlockLayerError(
                f"cannot merge bio at sector {bio.sector} into request ending at "
                f"{self.bios[-1].end_sector}"
            )
        self.bios.append(bio)
