"""RBD: a virtual block device striped over RADOS objects.

Mirrors Ceph's RADOS Block Device: the image is chunked into fixed-size
objects named ``rbd_data.<image>.<index>``; block I/O splits into
per-object extents issued in parallel.  This is the layer the DeLiBA-K
UIFD driver exposes to the Linux block stack.

Erasure-coded images operate at object granularity (full-object encode
per write), so ``object_size`` should equal the workload block size for
EC pools; partial-object EC writes raise.  Replicated images support
arbitrary sub-object extents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..errors import StorageError
from ..obs.context import NULL_SPAN, wrap_span
from ..units import mib
from .client import RadosClient
from .osdmap import Pool, PoolType

DEFAULT_OBJECT_SIZE = mib(4)


@dataclass(frozen=True)
class Extent:
    """A contiguous byte range of the image."""

    offset: int
    length: int


class RBDImage:
    """One virtual disk image."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        pool: Pool,
        client: RadosClient,
        object_size: int = DEFAULT_OBJECT_SIZE,
        direct: bool = False,
    ):
        if size_bytes < 1:
            raise StorageError(f"image size must be >= 1, got {size_bytes}")
        if object_size < 512:
            raise StorageError(f"object size must be >= 512, got {object_size}")
        self.name = name
        self.size_bytes = size_bytes
        self.pool = pool
        self.client = client
        self.object_size = object_size
        #: The stack's op topology, set once by the driver that serves the
        #: image: True fans out replicas/shards from the client (DeLiBA),
        #: False routes every op through the primary OSD (stock Ceph).
        self.direct = direct

    def object_name(self, index: int) -> str:
        """RADOS object name of chunk ``index``."""
        return f"rbd_data.{self.name}.{index:016x}"

    def _object_extents(self, offset: int, length: int) -> list[tuple[int, int, int]]:
        """Split [offset, offset+length) into (object_index, obj_off, len)."""
        if offset < 0 or length <= 0:
            raise StorageError(f"invalid extent ({offset}, {length})")
        if offset + length > self.size_bytes:
            raise StorageError(
                f"extent ({offset}, {length}) beyond image size {self.size_bytes}"
            )
        out = []
        pos = offset
        remaining = length
        while remaining > 0:
            idx = pos // self.object_size
            obj_off = pos % self.object_size
            chunk = min(remaining, self.object_size - obj_off)
            out.append((idx, obj_off, chunk))
            pos += chunk
            remaining -= chunk
        return out

    def write(
        self, offset: int, data: bytes, sequential: bool = False, ctx=NULL_SPAN,
        tenant: str = "", direct: Optional[bool] = None,
    ) -> Generator:
        """Process: write ``data`` at ``offset`` (parallel across objects).

        ``ctx`` is the op's causal span: multi-object writes open one
        ``fanout`` child per extent so the straggler object is visible.
        ``tenant`` is the QoS identity stamped on every RADOS op.
        ``direct`` overrides the image's :attr:`direct` for this call.
        """
        if direct is None:
            direct = self.direct
        extents = self._object_extents(offset, len(data))
        multi = len(extents) > 1
        is_ec = self.pool.pool_type == PoolType.ERASURE
        legs = []
        pos = 0
        for idx, obj_off, chunk in extents:
            if is_ec and obj_off != 0:
                # EC model: writes must start at an object boundary
                # (each write re-encodes the object it addresses).
                raise StorageError(
                    f"EC image {self.name!r}: partial-object write at offset {offset}"
                )
            payload = data[pos : pos + chunk]
            pos += chunk
            name = self.object_name(idx)
            leg = ctx.child(f"obj{idx}", "fanout", object=idx) if multi else NULL_SPAN
            sub_ctx = leg if multi else ctx
            if is_ec:
                gen = self.client.write_ec(
                    self.pool,
                    name,
                    payload,
                    direct=direct,
                    sequential=sequential,
                    ctx=sub_ctx,
                    tenant=tenant,
                )
                legs.append((leg, gen))
            else:
                gen = self.client.write_replicated(
                    self.pool,
                    name,
                    payload,
                    offset=obj_off,
                    direct=direct,
                    sequential=sequential,
                    ctx=sub_ctx,
                    tenant=tenant,
                )
                legs.append((leg, gen))
        yield from self._fan_out(legs)

    def read(self, offset: int, length: int, ctx=NULL_SPAN, tenant: str = "") -> Generator:
        """Process: read ``length`` bytes at ``offset``; returns bytes."""
        extents = self._object_extents(offset, length)
        multi = len(extents) > 1
        legs = []
        for idx, obj_off, chunk in extents:
            name = self.object_name(idx)
            leg = ctx.child(f"obj{idx}", "fanout", object=idx) if multi else NULL_SPAN
            sub_ctx = leg if multi else ctx
            if self.pool.pool_type == PoolType.ERASURE:
                if obj_off != 0:
                    raise StorageError(
                        f"EC image {self.name!r}: partial-object read at offset {offset}"
                    )
                gen = self.client.read_ec(
                    self.pool, name, chunk, direct=self.direct, ctx=sub_ctx, tenant=tenant
                )
                legs.append((leg, gen))
            else:
                gen = self.client.read_replicated(
                    self.pool, name, obj_off, chunk, ctx=sub_ctx, tenant=tenant
                )
                legs.append((leg, gen))
        return b"".join((yield from self._fan_out(legs)))

    def _fan_out(self, legs: list) -> Generator:
        """Process: run per-object ``(span, generator)`` legs in
        parallel, joined by ``env.gather``; returns their results in
        order.  A single leg (its span is the null span) runs inline,
        with no join."""
        if len(legs) == 1:
            return [(yield from legs[0][1])]
        return (yield self.client.env.gather([wrap_span(leg, gen) for leg, gen in legs]))
