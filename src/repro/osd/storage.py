"""Storage-device latency/bandwidth models (NVMe SSD, SATA SSD, HDD).

A device is a queued server: fixed per-op media latency (different for
sequential and random access, reads and writes) plus size/bandwidth
transfer time, with bounded internal parallelism (NVMe queue channels).
Sequential reads additionally hit a per-object readahead cache: a read
that continues an object's previous read costs ``readahead_hit_ns``
(3 us on NVMe) instead of the random-read latency (20 us) until the
window is consumed.  That alone does not reproduce the paper's
sequential-read advantage: in Table II, random 4 kB reads take
1.16-1.33x as long as sequential ones on replicated pools and 1.00x on
EC pools, where the paper measures 1.55-2.0x.  ROADMAP item 9 (the
paper-conformance scoreboard) tracks the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..errors import StorageError
from ..sim import Environment, Resource, RngStream
from ..units import mib, transfer_ns, us


@dataclass(frozen=True)
class MediaProfile:
    """Latency/bandwidth parameters for one device class."""

    name: str
    seq_read_ns: int
    rand_read_ns: int
    seq_write_ns: int
    rand_write_ns: int
    read_bw: float  # bytes/sec
    write_bw: float
    channels: int  # internal parallelism
    readahead_hit_ns: int  # service time on readahead-cache hit
    jitter_sigma: float = 0.08
    #: Cost of a FLUSH/FUA barrier draining the volatile write-back
    #: cache to stable media (cheap on NVMe with PLP-less DRAM cache,
    #: a full track-cache destage on spinning rust).
    flush_ns: int = us(100)


#: Datacenter NVMe (the paper's OSD drives are flash-backed).
NVME_SSD = MediaProfile(
    "nvme-ssd",
    seq_read_ns=us(16),
    rand_read_ns=us(20),
    seq_write_ns=us(14),
    rand_write_ns=us(16),
    read_bw=3.0e9,
    write_bw=2.0e9,
    channels=8,
    readahead_hit_ns=us(3),
    flush_ns=us(40),
)

#: SATA SSD.
SATA_SSD = MediaProfile(
    "sata-ssd",
    seq_read_ns=us(60),
    rand_read_ns=us(90),
    seq_write_ns=us(50),
    rand_write_ns=us(70),
    read_bw=0.5e9,
    write_bw=0.45e9,
    channels=4,
    readahead_hit_ns=us(5),
    flush_ns=us(400),
)

#: 7.2k HDD.
HDD = MediaProfile(
    "hdd",
    seq_read_ns=us(150),
    rand_read_ns=int(4.2e6),  # ~4.2 ms seek+rotate
    seq_write_ns=us(150),
    rand_write_ns=int(4.6e6),
    read_bw=0.2e9,
    write_bw=0.19e9,
    channels=1,
    readahead_hit_ns=us(20),
    flush_ns=int(2.0e6),
)


class StorageDevice:
    """One physical drive behind an OSD."""

    def __init__(
        self,
        env: Environment,
        profile: MediaProfile = NVME_SSD,
        rng: RngStream | None = None,
        name: str = "",
        readahead_window: int = mib(1),
    ):
        self.env = env
        self.profile = profile
        self.rng = rng
        self.name = name
        self._channels = Resource(env, capacity=profile.channels, name=f"dev:{name}")
        # object -> (offset after last read, bytes served from the current
        # readahead window).
        self._read_cursor: dict[str, tuple[int, int]] = {}
        self.readahead_window = readahead_window
        # Volatile write-back cache: persistence actions queued by the
        # WAL pipeline, made stable only by flush() (FLUSH/FUA barrier).
        # A power loss drops everything still queued here.
        self._volatile: list = []
        self._flush_lock = Resource(env, capacity=1, name=f"dev:{name}:flush")
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.flushes = 0
        self.flushed_entries = 0

    def _jitter(self, mean_ns: int) -> int:
        if self.rng is None:
            return mean_ns
        return self.rng.lognormal_ns(mean_ns, self.profile.jitter_sigma)

    def read(self, obj: str, offset: int, length: int) -> Generator:
        """Process: one read I/O against the media.

        Sequential streams are detected from the per-object cursor: a read
        continuing the stream is served from readahead
        (``readahead_hit_ns``) until the window is consumed, at which
        point one media fetch (``seq_read_ns``) refills it.  Any
        non-contiguous read pays the full random latency.
        """
        if length <= 0:
            raise StorageError(f"read length must be > 0, got {length}")
        cursor = self._read_cursor.get(obj)
        if cursor is not None and cursor[0] == offset:
            consumed = cursor[1] + length
            if consumed >= self.readahead_window:
                latency = self.profile.seq_read_ns  # refill the window
                consumed = 0
            else:
                latency = self.profile.readahead_hit_ns
        else:
            latency = self.profile.rand_read_ns
            consumed = 0
        service = self._jitter(latency) + transfer_ns(length, self.profile.read_bw)
        yield from self._channels.using(service)
        self._read_cursor[obj] = (offset + length, consumed)
        self.reads += 1
        self.bytes_read += length

    def write(self, obj: str, offset: int, length: int, sequential: bool) -> Generator:
        """Process: one write I/O (caller classifies the access pattern)."""
        if length <= 0:
            raise StorageError(f"write length must be > 0, got {length}")
        latency = self.profile.seq_write_ns if sequential else self.profile.rand_write_ns
        service = self._jitter(latency) + transfer_ns(length, self.profile.write_bw)
        yield from self._channels.using(service)
        self.writes += 1
        self.bytes_written += length

    def cache_write(self, entry) -> None:
        """Queue a persistence action in the volatile write-back cache.

        ``entry`` is any object with a ``persist()`` method; it becomes
        stable only when a subsequent :meth:`flush` barrier runs it.
        """
        self._volatile.append(entry)

    def flush(self) -> Generator:
        """Process: FLUSH/FUA barrier — drain the volatile cache.

        Persists (in order) every entry that was queued when the barrier
        was issued.  Entries queued while the flush is in flight stay
        volatile, matching real cache-flush semantics.
        """
        req = yield from self._flush_lock.acquire()
        try:
            batch = len(self._volatile)
            yield from self._channels.using(self._jitter(self.profile.flush_ns))
            for entry in self._volatile[:batch]:
                entry.persist()
            del self._volatile[:batch]
            self.flushes += 1
            self.flushed_entries += batch
        finally:
            self._flush_lock.release(req)

    def drop_volatile(self) -> list:
        """Power loss: return and clear the un-flushed cache entries."""
        entries = self._volatile
        self._volatile = []
        self._read_cursor.clear()
        return entries

    @property
    def volatile_depth(self) -> int:
        """Entries sitting in the volatile write-back cache."""
        return len(self._volatile)
