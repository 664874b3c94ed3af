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
        #: DeLiBA mode: client fans out replicas/shards directly.
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
        tenant: str = "",
    ) -> Generator:
        """Process: write ``data`` at ``offset`` (parallel across objects).

        ``ctx`` is the op's causal span: multi-object writes open one
        ``fanout`` child per extent so the straggler object is visible.
        ``tenant`` is the QoS identity stamped on every RADOS op.
        """
        extents = self._object_extents(offset, len(data))
        multi = len(extents) > 1
        is_ec = self.pool.pool_type == PoolType.ERASURE
        pre_encoded: list[Optional[list[bytes]]] = [None] * len(extents)
        if is_ec and self.direct and len(extents) > 1:
            # Client-side fan-out re-encodes every object of the write:
            # batch all stripes through one cross-stripe matmul instead
            # of one codec call per object (bytes are identical).
            payloads, pos = [], 0
            for _idx, obj_off, chunk in extents:
                if obj_off != 0:
                    raise StorageError(
                        f"EC image {self.name!r}: partial-object write at offset {offset}"
                    )
                payloads.append(data[pos : pos + chunk])
                pos += chunk
            pre_encoded = self.client._codec(self.pool).encode_batch(payloads)
        procs = []
        pos = 0
        for ext_i, (idx, obj_off, chunk) in enumerate(extents):
            payload = data[pos : pos + chunk]
            pos += chunk
            name = self.object_name(idx)
            leg = ctx.child(f"obj{idx}", "fanout", object=idx) if multi else NULL_SPAN
            sub_ctx = leg if multi else ctx
            if is_ec:
                if obj_off != 0:
                    # EC model: writes must start at an object boundary
                    # (each write re-encodes the object it addresses).
                    raise StorageError(
                        f"EC image {self.name!r}: partial-object write at offset {offset}"
                    )
                gen = self.client.write_ec(
                    self.pool,
                    name,
                    payload,
                    direct=self.direct,
                    sequential=sequential,
                    shards=pre_encoded[ext_i],
                    ctx=sub_ctx,
                    tenant=tenant,
                )
                procs.append(self.client.env.process(wrap_span(leg, gen), name="rbd-ec-wr"))
            else:
                gen = self.client.write_replicated(
                    self.pool,
                    name,
                    payload,
                    offset=obj_off,
                    direct=self.direct,
                    sequential=sequential,
                    ctx=sub_ctx,
                    tenant=tenant,
                )
                procs.append(self.client.env.process(wrap_span(leg, gen), name="rbd-wr"))
        yield self.client.env.all_of(procs)

    def read(self, offset: int, length: int, ctx=NULL_SPAN, tenant: str = "") -> Generator:
        """Process: read ``length`` bytes at ``offset``; returns bytes."""
        extents = self._object_extents(offset, length)
        multi = len(extents) > 1
        env = self.client.env
        procs = []
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
                procs.append(env.process(wrap_span(leg, gen), name="rbd-ec-rd"))
            else:
                gen = self.client.read_replicated(
                    self.pool, name, obj_off, chunk, ctx=sub_ctx, tenant=tenant
                )
                procs.append(env.process(wrap_span(leg, gen), name="rbd-rd"))
        results = yield env.all_of(procs)
        return b"".join(results[p] for p in procs)
