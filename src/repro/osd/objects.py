"""In-memory object store backing one OSD (a miniature BlueStore).

Objects are addressed by name.  Like BlueStore's extent map, an object
holds only the bytes that were written: a sorted list of non-overlapping
``(start, payload)`` extents plus a logical size (the highest byte ever
written).  Holes and reads past the end return zeros, like a filesystem
hole, so memory is proportional to bytes written, not to object size.
An object written whole from offset 0 -- the common case for EC shards,
recovery pushes and small objects -- is kept as its payload alone and
becomes an extent list on its first partial or offset write.

Payloads are immutable ``bytes`` held by reference: a write keeps the
caller's ``bytes`` object (a ``bytearray`` or ``memoryview`` is copied
once), a read that falls inside one extent returns that payload or a
slice of it, and an overwrite splits the extents it overlaps into slices
of the old payloads.  Several objects and stores -- e.g. the WAL's media
image and the OSD's visible store -- can therefore share one payload,
and nothing ever mutates a payload in place.

:meth:`ObjectStore.image` hands out an object's content in this same
representation, as an immutable extent image: the object's ``bytes``
when it was written whole, else an :class:`ExtentImage` of its runs.
Writing an image over a whole object installs it as it stands, so a
recovery push keeps the source's layout: the target holds the same
extents and shares the source's payloads, and a 4 MiB object holding
one 4 KiB extent costs the target 4 KiB, not 4 MiB.

Like BlueStore, every write refreshes a stored whole-object checksum, so
scrub can tell *which* copy rotted even in 2-replica pools where a
majority vote ties.  The checksum is the SHA-256 of the logical content,
holes included, so it does not depend on the extent layout: replicas
written in different patterns agree.  It is streamed through
:mod:`hashlib` extent by extent and hole by hole, never materialising
the object.  The checksum is maintained lazily: a write
marks the object dirty and the digest is computed on first read of the
checksum (scrub/verify) -- the write hot path never hashes.  A
legitimate-write digest is flushed before :meth:`ObjectStore.corrupt`
replaces bytes, so silent corruption is still detectable: the stored
checksum always reflects the last legitimate write.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import Union

from ..errors import StorageError

#: Shared zero buffer that holes are hashed from, in chunks.
_ZEROS = memoryview(bytes(1 << 16))


class _Extents:
    """A fragmented object: sorted, non-overlapping ``(start, payload)``
    runs (every payload non-empty) and the logical size."""

    __slots__ = ("size", "starts", "payloads")

    def __init__(self, size: int, starts: list[int], payloads: list[bytes]):
        self.size = size
        self.starts = starts
        self.payloads = payloads

    def put(self, offset: int, data: bytes) -> None:
        """Overlay ``data`` at ``offset``, splitting overlapped extents."""
        end = offset + len(data)
        if end > self.size:
            self.size = end
        if not data:
            return
        starts, payloads = self.starts, self.payloads
        lo = bisect_right(starts, offset) - 1
        if lo < 0 or starts[lo] + len(payloads[lo]) <= offset:
            lo += 1
        hi = bisect_left(starts, end, lo)
        new_starts, new_payloads = [offset], [data]
        if lo < hi:
            first, last = starts[lo], starts[hi - 1]
            if first < offset:
                new_starts.insert(0, first)
                new_payloads.insert(0, payloads[lo][: offset - first])
            tail = payloads[hi - 1]
            if last + len(tail) > end:
                new_starts.append(end)
                new_payloads.append(tail[end - last :])
        starts[lo:hi] = new_starts
        payloads[lo:hi] = new_payloads


class ExtentImage:
    """An immutable snapshot of a fragmented object's content.

    ``size`` is the logical size; ``starts`` and ``payloads`` are the
    sorted runs, sharing the store's ``bytes`` by reference.  ``len()``
    is the logical size and ``bytes()`` flattens the image, holes and
    the tail past the last run as zeros.
    """

    __slots__ = ("size", "starts", "payloads")

    def __init__(self, size: int, starts: tuple[int, ...], payloads: tuple[bytes, ...]):
        self.size = size
        self.starts = starts
        self.payloads = payloads

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        buf = bytearray(self.size)
        for start, payload in zip(self.starts, self.payloads):
            buf[start : start + len(payload)] = payload
        return bytes(buf)


#: An object is its payload (written whole) or an extent list.
_Object = Union[bytes, _Extents]
#: An object's content handed out of the store (see ObjectStore.image).
Image = Union[bytes, ExtentImage]


def _size(obj: _Object) -> int:
    return len(obj) if type(obj) is bytes else obj.size


def _runs(obj: _Object) -> tuple:
    """``(starts, payloads)``: a whole-written object is one extent at 0."""
    return ((0,), (obj,)) if type(obj) is bytes else (obj.starts, obj.payloads)


def _hash_zeros(h, n: int) -> None:
    while n > 0:
        step = min(n, len(_ZEROS))
        h.update(_ZEROS[:step])
        n -= step


class ObjectStore:
    """name -> sparse extent map of shared immutable payloads, with checksums."""

    def __init__(self):
        self._objects: dict[str, _Object] = {}
        self._checksums: dict[str, str] = {}
        #: Objects whose checksum is stale (recomputed on demand).
        self._dirty: set[str] = set()

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def used_bytes(self) -> int:
        """Total bytes held in extents across all objects (holes are free)."""
        return sum(
            len(obj) if type(obj) is bytes else sum(map(len, obj.payloads))
            for obj in self._objects.values()
        )

    def object_names(self) -> list[str]:
        """Sorted object names (for scrub/recovery iteration)."""
        return sorted(self._objects)

    def object_size(self, name: str) -> int:
        """Current size of an object (0 if absent)."""
        obj = self._objects.get(name)
        return _size(obj) if obj is not None else 0

    def _get(self, name: str) -> _Object:
        obj = self._objects.get(name)
        if obj is None:
            raise StorageError(f"no such object {name!r}")
        return obj

    def _put(self, name: str, offset: int, data: bytes) -> None:
        obj = self._objects.get(name)
        if offset == 0 and (obj is None or len(data) >= _size(obj)):
            self._objects[name] = data  # covers the whole object
            return
        if type(obj) is not _Extents:
            obj = _Extents(len(obj), [0], [obj]) if obj else _Extents(0, [], [])
            self._objects[name] = obj
        obj.put(offset, data)

    def write(self, name: str, offset: int, data: Image) -> None:
        """Write ``data`` at ``offset``, growing the object as needed.

        ``bytes`` payloads are kept by reference; a ``bytearray`` or
        ``memoryview`` is copied once, so later mutation by the caller
        cannot leak in.  An :class:`ExtentImage` that covers the whole
        object is installed with its layout, sharing its payloads; one
        written anywhere else is flattened first.
        """
        if offset < 0:
            raise StorageError(f"negative write offset {offset}")
        if type(data) is ExtentImage and offset == 0 and data.size >= self.object_size(name):
            # Covers the whole object: its runs copied, its payloads shared.
            self._objects[name] = _Extents(data.size, list(data.starts), list(data.payloads))
        else:
            self._put(name, offset, bytes(data))
        self._dirty.add(name)

    def image(self, name: str) -> Image:
        """The object's content as an immutable extent image.

        A whole-written object's image is its ``bytes``; any other is an
        :class:`ExtentImage` whose runs share this store's payloads.
        Later writes to the object do not reach the image.  Writing it
        into another store at offset 0 copies the object without
        copying data; the checksum there is re-derived on demand.
        """
        obj = self._get(name)
        if type(obj) is bytes:
            return obj
        return ExtentImage(obj.size, tuple(obj.starts), tuple(obj.payloads))

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``; holes and EOF read as zeros."""
        if offset < 0 or length < 0:
            raise StorageError(f"invalid read extent ({offset}, {length})")
        obj = self._get(name)
        end = offset + length
        starts, payloads = _runs(obj)
        i = bisect_right(starts, offset) - 1
        if i >= 0 and end - starts[i] <= len(payloads[i]):
            # Inside one extent: the payload itself, or one slice of it.
            start, payload = starts[i], payloads[i]
            if offset == start and length == len(payload):
                return payload
            return payload[offset - start : end - start]
        buf = bytearray(length)
        for i in range(max(0, i), len(starts)):
            start, payload = starts[i], payloads[i]
            if start >= end:
                break
            a, b = max(0, offset - start), min(len(payload), end - start)
            if a < b:
                buf[start + a - offset : start + b - offset] = memoryview(payload)[a:b]
        return bytes(buf)

    def clear(self) -> None:
        """Drop every object and checksum (a revived OSD starts empty:
        its pre-failure content is stale and must be backfilled)."""
        self._objects.clear()
        self._checksums.clear()
        self._dirty.clear()

    def delete(self, name: str) -> None:
        """Remove an object."""
        self._get(name)
        del self._objects[name]
        self._checksums.pop(name, None)
        self._dirty.discard(name)

    # -- integrity -------------------------------------------------------------

    def content_digest(self, name: str) -> str:
        """SHA-256 of the object's current content (holes read as zeros).

        Streamed extent by extent and hole by hole, never materialised.
        """
        obj = self._get(name)
        h, pos = hashlib.sha256(), 0
        for start, payload in zip(*_runs(obj)):
            _hash_zeros(h, start - pos)
            h.update(payload)
            pos = start + len(payload)
        _hash_zeros(h, _size(obj) - pos)
        return h.hexdigest()

    def _flush_checksum(self, name: str) -> None:
        """Materialize the pending legitimate-write checksum, if any."""
        if name in self._dirty:
            self._checksums[name] = self.content_digest(name)
            self._dirty.discard(name)

    def corrupt(self, name: str, offset: int, junk: bytes) -> None:
        """Fault injection: alter stored bytes WITHOUT updating the
        checksum — silent media corruption.  The overlapped extents are
        replaced, so a payload shared with another object or store is
        left intact."""
        self._get(name)
        # The stored checksum must keep describing the last legitimate
        # write, so settle any lazily deferred digest first.
        self._flush_checksum(name)
        self._put(name, offset, bytes(junk))

    def stored_checksum(self, name: str) -> str:
        """The checksum recorded at last legitimate write."""
        self._flush_checksum(name)
        if name not in self._checksums:
            raise StorageError(f"no checksum for object {name!r}")
        return self._checksums[name]

    def verify(self, name: str) -> bool:
        """True when current content matches the stored checksum."""
        self._get(name)
        self._flush_checksum(name)
        return self.content_digest(name) == self._checksums.get(name)
