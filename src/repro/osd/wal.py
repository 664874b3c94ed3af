"""BlueStore-style transactional commit pipeline (WAL) for one OSD.

The seed's :class:`~repro.osd.objects.ObjectStore` is volatile: an OSD
ack proves nothing about durability, and the only recovery path after a
crash is full backfill.  This module adds the missing crash-consistency
leg.  Writes become transactions against *durable* state — a media-level
:class:`ObjectStore` plus an ordered write-ahead log — staged through
the device's volatile write-back cache and made stable only by explicit
FLUSH/FUA barriers (:meth:`StorageDevice.flush`):

* **deferred writes** (small, <= ``defer_threshold``): the data rides in
  the WAL record itself.  Journal append -> barrier -> ack; the in-place
  media apply happens in the background (BlueStore's deferred-write
  path), and the log entry is trimmed once the apply is flushed.
* **commit writes** (large): data goes to a fresh extent first, then a
  barrier, then a commit record binding the extent (by checksum) to the
  object — an atomic metadata remap, never an overwrite in place.
* **deletes**: journaled, so tombstones survive a power loss.

Digests are computed when replay first reads them, never on the write
path.  A commit record keeps its staged payload by reference (the same
``bytes`` the staged extent holds and the install moves into the
object) and derives its extent checksum from it; a sealed record's
checksum is the SHA-256 of its fields.  Both are what an eager seal
would have stamped, because a record's fields are read-only; only a
torn append stores a checksum (:data:`TORN_CHECKSUM`), which replay
rejects.

A ``power_loss`` drops the volatile cache: each un-flushed entry is
persisted, dropped, or **torn** (a prefix of atomic media units lands,
without a checksum update) under seeded RNG draws.  Restart replays the
log against the surviving media image, re-derives checksums, and hands
the OSD back a store in which every *acked* write is present and every
unacked write is atomic — old bytes or new bytes, never a torn hybrid.

Replay invariants (why this is crash-consistent):

* an op is acked only after its WAL record is flushed, so the record is
  durable and replay always reaches it (records enter the log in seq
  order; a gap or torn record can only involve unacked seqs);
* a background apply exists only after its record's barrier, so a torn
  in-place apply is always covered by a durable record: the key is kept
  (``_torn_keys``) and the record's bytes heal the torn range;
* trim requires the apply itself to have been flushed, so trimmed
  records never need replay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Generator, Optional

from ..errors import ProcessKilled
from ..obs.context import NULL_SPAN
from ..sim import NULL_METRICS, Environment
from ..units import kib
from .objects import ObjectStore
from .storage import StorageDevice

#: Device key the journal stream is written under (latency accounting
#: only — journal bytes live in :attr:`WriteAheadLog.log`, not in media).
JOURNAL_KEY = "~wal"

#: Modeled on-media size of a record header (seq, kind, key, csum).
RECORD_HEADER_BYTES = 64

#: Checksum sentinel marking a record torn by power loss mid-append.
TORN_CHECKSUM = "~torn~"


@dataclass(frozen=True)
class DurabilityConfig:
    """Tunables of the per-OSD commit pipeline."""

    #: Writes at or below this size take the deferred (journal-data)
    #: path; larger writes stage a fresh extent + commit record.
    defer_threshold: int = kib(32)
    #: Media atomicity granularity: a torn write lands a whole number of
    #: these units (a sector/page), never a partial unit.
    atomic_unit: int = 4096
    #: Whether an interrupted media write can tear at all; False models
    #: media with atomic whole-request writes (e.g. PLP-backed NVMe).
    torn_writes: bool = True
    #: Fate probabilities for each volatile cache entry at power loss:
    #: persisted anyway (made it to media just in time) with
    #: ``persist_p``, torn with ``tear_p``, dropped otherwise.
    persist_p: float = 0.4
    tear_p: float = 0.2
    #: Record (time, kind, seq) persistence-ordering events in
    #: :attr:`WriteAheadLog.events`; only the crash-point explorer reads
    #: them, and its testbed turns this on.
    record_events: bool = False


class WalRecord:
    """One journaled transaction.

    ``kind`` is "deferred", "commit" or "delete".  A deferred record
    carries its ``data``; a commit record names the extent staged before
    it (``extent_key``) and keeps that extent's payload by reference
    (``staged``), which ``extent_checksum`` digests and the install
    moves into the object.  ``whole`` gives whole-object semantics
    (recovery push): replay deletes any existing base before writing, so
    a shorter new object never inherits a stale tail.

    Every field is read-only after construction, so a digest computed
    when replay first reads it equals the one an eager seal would have
    stamped.  Only ``checksum`` is assignable: a torn append stores
    :data:`TORN_CHECKSUM` there.
    """

    __slots__ = (
        "seq", "kind", "key", "offset", "length", "version", "data", "extent_key", "staged",
        "whole", "_extent_checksum", "_digest", "_checksum",
    )

    def __init__(
        self,
        seq: int,
        kind: str,
        key: str,
        offset: int,
        length: int,
        version: int,
        data: Optional[bytes] = None,
        extent_key: str = "",
        staged: Optional[bytes] = None,
        whole: bool = False,
    ):
        init = object.__setattr__
        init(self, "seq", seq)
        init(self, "kind", kind)
        init(self, "key", key)
        init(self, "offset", offset)
        init(self, "length", length)
        init(self, "version", version)
        init(self, "data", data)
        init(self, "extent_key", extent_key)
        init(self, "staged", staged)
        init(self, "whole", whole)
        init(self, "_extent_checksum", None)
        init(self, "_digest", None)
        init(self, "_checksum", "")

    def __setattr__(self, name: str, value) -> None:
        if name != "checksum":
            raise AttributeError(f"WalRecord.{name} is read-only")
        object.__setattr__(self, "_checksum", value)

    @property
    def extent_checksum(self) -> str:
        """SHA-256 of the staged payload ("" for non-commit records)."""
        if self._extent_checksum is None:
            digest = "" if self.staged is None else hashlib.sha256(self.staged).hexdigest()
            object.__setattr__(self, "_extent_checksum", digest)
        return self._extent_checksum

    def _payload_digest(self) -> str:
        if self._digest is None:
            body = repr(
                (
                    self.seq,
                    self.kind,
                    self.key,
                    self.offset,
                    self.length,
                    self.version,
                    self.data,
                    self.extent_key,
                    self.extent_checksum,
                    self.whole,
                )
            )
            object.__setattr__(self, "_digest", hashlib.sha256(body.encode()).hexdigest())
        return self._digest

    def seal(self) -> None:
        """Seal at append: the checksum is the payload digest, taken when first read.

        Nothing is hashed here; replay's first read of ``checksum`` (or
        ``valid``) computes the digest, once.
        """
        object.__setattr__(self, "_checksum", None)

    @property
    def checksum(self) -> str:
        """The stored checksum: the payload digest once sealed ("" before)."""
        return self._payload_digest() if self._checksum is None else self._checksum

    @property
    def valid(self) -> bool:
        """True when the stored checksum matches the payload."""
        return self.checksum == self._payload_digest()

    def wire_size(self) -> int:
        """Modeled journal footprint of this record."""
        return RECORD_HEADER_BYTES + (len(self.data) if self.data is not None else 0)


@dataclass
class WalReplayStats:
    """What one restart replay did."""

    records_replayed: int = 0
    #: Records after a gap/torn record — unacked, discarded.
    records_discarded: int = 0
    #: Commit records whose extent was missing or torn.
    commits_skipped: int = 0
    #: Media keys whose content failed the checksum pass (torn writes).
    torn_detected: int = 0
    #: Torn keys with no covering record — dropped (never acked).
    keys_dropped: int = 0
    objects_recovered: int = 0
    bytes_recovered: int = 0


# -- volatile-cache entries ---------------------------------------------------
#
# What the device's write-back cache holds: deferred persistence actions
# against the WAL's durable state.  ``persist()`` runs at flush; a power
# loss instead feeds each entry to ``WriteAheadLog._lose_entry``.


class _WalEntry:
    """A journal append awaiting flush."""

    def __init__(self, wal: "WriteAheadLog", record: WalRecord):
        self.wal = wal
        self.record = record

    def persist(self) -> None:
        self.wal.log.append(self.record)


class _MediaEntry:
    """An in-place data (or extent) write awaiting flush."""

    def __init__(
        self,
        wal: "WriteAheadLog",
        key: str,
        offset: int,
        data: bytes,
        version: Optional[int],
        seq: Optional[int],
        whole: bool = False,
        extent: bool = False,
    ):
        self.wal = wal
        self.key = key
        self.offset = offset
        self.data = data
        self.version = version
        self.seq = seq
        self.whole = whole
        self.extent = extent

    def persist(self) -> None:
        media = self.wal.media
        if self.whole and self.key in media:
            media.delete(self.key)
        media.write(self.key, self.offset, self.data)
        if self.extent:
            self.wal._extents.add(self.key)
        if self.version is not None:
            self.wal.durable_versions[self.key] = self.version
        if self.seq is not None:
            self.wal._applied.add(self.seq)


class _InstallEntry:
    """A commit install (extent -> object metadata remap) awaiting flush.

    The staged payload moves into the object by reference: the staged
    extent, the commit record, the installed object and the visible
    store share one ``bytes``, never a copy.
    """

    def __init__(self, wal: "WriteAheadLog", record: WalRecord):
        self.wal = wal
        self.record = record

    def persist(self) -> None:
        wal, rec = self.wal, self.record
        if rec.whole and rec.key in wal.media:
            wal.media.delete(rec.key)
        wal.media.write(rec.key, rec.offset, rec.staged)
        if rec.extent_key in wal.media:
            wal.media.delete(rec.extent_key)
        wal._extents.discard(rec.extent_key)
        wal.durable_versions[rec.key] = rec.version
        wal._applied.add(rec.seq)


class _DeleteEntry:
    """A journaled delete's media-side effect awaiting flush."""

    def __init__(self, wal: "WriteAheadLog", record: WalRecord):
        self.wal = wal
        self.record = record

    def persist(self) -> None:
        wal, rec = self.wal, self.record
        if rec.key in wal.media:
            wal.media.delete(rec.key)
        if rec.version < 0:
            wal.durable_versions.pop(rec.key, None)
        else:
            wal.durable_versions[rec.key] = rec.version
        wal._applied.add(rec.seq)


class WriteAheadLog:
    """The transactional commit pipeline for one OSD."""

    def __init__(
        self,
        env: Environment,
        device: StorageDevice,
        owner,
        config: Optional[DurabilityConfig] = None,
        rng=None,
        metrics=None,
    ):
        self.env = env
        self.device = device
        #: The OSD daemon: its ``store``/``versions`` are the *visible*
        #: (volatile) state; :meth:`recover` reassigns both after replay.
        self.owner = owner
        self.config = config or DurabilityConfig()
        self.rng = rng
        # -- durable state (survives power loss) --
        self.media = ObjectStore()
        self.log: list[WalRecord] = []
        self.durable_versions: dict[str, int] = {}
        self.checkpoint_seq = 0
        self._applied: set[int] = set()
        self._extents: set[str] = set()
        #: Torn data keys -> seq of the durable record covering the tear
        #: (set at power loss, consumed by the next replay).
        self._torn_keys: dict[str, int] = {}
        # -- pipeline bookkeeping --
        self._seq = 0
        self._journal_off = 0
        self._extent_n = 0
        self._bg: set = set()
        #: (time_ns, kind, seq) persistence-ordering events, for the
        #: crash-point explorer (kinds: append, stage, barrier, apply).
        self.events: list[tuple[int, str, int]] = []
        self.appends = 0
        self.wal_bytes = 0
        self.deferred_writes = 0
        self.commit_writes = 0
        self.trims = 0
        self.replays = 0
        self.power_losses = 0
        metrics = metrics or NULL_METRICS
        self._m_appends = metrics.counter("wal.appends")
        self._m_bytes = metrics.counter("wal.bytes")
        self._m_replays = metrics.counter("wal.replays")
        self._m_replayed = metrics.counter("wal.records_replayed")
        self._m_torn = metrics.counter("wal.torn_detected")
        self._m_dropped = metrics.counter("wal.keys_dropped")

    # -- helpers ---------------------------------------------------------------

    def _event(self, kind: str, seq: int) -> None:
        if self.config.record_events:
            self.events.append((self.env.now, kind, seq))

    def _alloc_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _append(self, record: WalRecord) -> None:
        """Queue a sealed record in the volatile cache (post-device-write,
        so cache order == seq order)."""
        record.seal()
        self.device.cache_write(_WalEntry(self, record))
        self.appends += 1
        self.wal_bytes += record.wire_size()
        self._m_appends.add()
        self._m_bytes.add(record.wire_size())
        self._event("append", record.seq)

    def _barrier(self, span=NULL_SPAN) -> Generator:
        """FLUSH/FUA: drain the volatile cache, then trim the log."""
        t0 = self.env.now
        yield from self.device.flush()
        self._trim()
        self._event("barrier", self._seq)
        span.record("wal.flush", "service", t0, self.env.now)

    def _trim(self) -> None:
        """Drop the log prefix whose applies are flushed (checkpoint)."""
        while (
            self.log
            and self.log[0].seq == self.checkpoint_seq + 1
            and self.log[0].seq in self._applied
        ):
            rec = self.log.pop(0)
            self._applied.discard(rec.seq)
            self.checkpoint_seq = rec.seq
            self.trims += 1

    def _spawn(self, gen, name: str) -> None:
        proc = self.env.process(gen, name=name)
        self._bg.add(proc)
        proc.callbacks.append(self._reap)

    def _reap(self, proc) -> None:
        self._bg.discard(proc)
        if not proc.ok and not isinstance(proc.value, ProcessKilled):
            raise proc.value

    def halt(self) -> None:
        """Kill background applies (the OSD process died)."""
        for proc in list(self._bg):
            if proc.is_alive:
                proc.interrupt("wal halted")
        self._bg.clear()

    # -- write pipeline --------------------------------------------------------

    def write(
        self,
        name: str,
        offset: int,
        data: bytes,
        sequential: bool,
        version: int,
        span=NULL_SPAN,
        whole: bool = False,
    ) -> Generator:
        """Process: one transactional write; durable on return (ackable)."""
        # Records digest their payload late, so it must not change:
        # ``bytes`` is kept as is, a mutable buffer is copied once.
        data = bytes(data)
        if len(data) <= self.config.defer_threshold:
            yield from self._write_deferred(name, offset, data, version, span, whole)
        else:
            yield from self._write_commit(name, offset, data, sequential, version, span, whole)
        # Visible state updates only after the transaction is durable.
        if whole and name in self.owner.store:
            self.owner.store.delete(name)
        self.owner.store.write(name, offset, data)

    def _write_deferred(
        self, name: str, offset: int, data: bytes, version: int, span, whole: bool
    ) -> Generator:
        """Small write: data rides in the journal; apply in background."""
        self.deferred_writes += 1
        t0 = self.env.now
        wire = RECORD_HEADER_BYTES + len(data)
        yield from self.device.write(JOURNAL_KEY, self._journal_off, wire, True)
        rec = WalRecord(
            self._alloc_seq(), "deferred", name, offset, len(data), version,
            data=data, whole=whole,
        )
        self._journal_off += wire
        self._append(rec)
        span.record("wal.append", "service", t0, self.env.now, seq=rec.seq)
        yield from self._barrier(span)
        self._spawn(self._apply_in_place(rec), name=f"wal:{self.owner.entity}:apply{rec.seq}")

    def _apply_in_place(self, rec: WalRecord) -> Generator:
        """Background: write the deferred data into its media location."""
        yield from self.device.write(rec.key, rec.offset, len(rec.data), False)
        self.device.cache_write(
            _MediaEntry(self, rec.key, rec.offset, rec.data, rec.version, rec.seq, rec.whole)
        )
        self._event("apply", rec.seq)

    def _write_commit(
        self,
        name: str,
        offset: int,
        data: bytes,
        sequential: bool,
        version: int,
        span,
        whole: bool,
    ) -> Generator:
        """Large write: fresh extent, barrier, then an atomic commit
        record remapping the extent into the object."""
        self.commit_writes += 1
        self._extent_n += 1
        extent = f"{name}~x{self._extent_n}"
        t0 = self.env.now
        yield from self.device.write(extent, 0, len(data), sequential)
        self.device.cache_write(
            _MediaEntry(self, extent, 0, data, None, None, extent=True)
        )
        self._event("stage", 0)
        span.record("wal.stage", "service", t0, self.env.now, extent=extent)
        yield from self._barrier(span)
        t1 = self.env.now
        yield from self.device.write(JOURNAL_KEY, self._journal_off, RECORD_HEADER_BYTES, True)
        rec = WalRecord(
            self._alloc_seq(), "commit", name, offset, len(data), version,
            extent_key=extent, staged=data, whole=whole,
        )
        self._journal_off += RECORD_HEADER_BYTES
        self._append(rec)
        span.record("wal.append", "service", t1, self.env.now, seq=rec.seq)
        yield from self._barrier(span)
        # Install is pure metadata: no further device write, just a
        # cache entry applying the remap at the next flush.
        self.device.cache_write(_InstallEntry(self, rec))

    def delete(self, name: str, version: int) -> Generator:
        """Process: journal a delete so the tombstone survives a crash."""
        yield from self.device.write(JOURNAL_KEY, self._journal_off, RECORD_HEADER_BYTES, True)
        rec = WalRecord(self._alloc_seq(), "delete", name, 0, 0, version)
        self._journal_off += RECORD_HEADER_BYTES
        self._append(rec)
        yield from self._barrier()
        self.device.cache_write(_DeleteEntry(self, rec))

    def sync(self) -> Generator:
        """Process: explicit barrier (flush everything volatile, trim)."""
        yield from self._barrier()

    # -- power loss ------------------------------------------------------------

    def power_loss(self) -> None:
        """Cut power: resolve the volatile cache under seeded fate draws.

        Fates draw from a child stream forked on the crash *instant*, so
        a crash-point explorer cutting the same seed's timeline at many
        different times sees independent fate sequences — without that,
        every cut would replay the parent stream from position zero and
        sample the same few outcomes.
        """
        self.power_losses += 1
        fates = None if self.rng is None else self.rng.fork(f"ploss@{self.env.now}")
        for entry in self.device.drop_volatile():
            self._lose_entry(entry, fates)

    def _fate(self, rng) -> str:
        if rng is None:
            return "drop"
        r = rng.uniform(0.0, 1.0)
        if r < self.config.persist_p:
            return "persist"
        if self.config.torn_writes and r < self.config.persist_p + self.config.tear_p:
            return "tear"
        return "drop"

    def _lose_entry(self, entry, rng) -> None:
        fate = self._fate(rng)
        if fate == "persist":
            entry.persist()
            return
        if fate != "tear":
            return
        if isinstance(entry, _WalEntry):
            # Torn journal append: the record lands, unreadable.
            entry.record.checksum = TORN_CHECKSUM
            self.log.append(entry.record)
            return
        if isinstance(entry, _DeleteEntry):
            return  # deletes don't tear: persist-or-drop only
        # Media-side tear: a prefix of atomic units lands, silently
        # (no checksum update -> the key fails the replay verify pass).
        if isinstance(entry, _InstallEntry):
            key, offset, data = entry.record.key, entry.record.offset, entry.record.staged
            covering = entry.record.seq
        else:  # _MediaEntry
            key, offset, data = entry.key, entry.offset, entry.data
            covering = entry.seq
        units = max(1, -(-len(data) // self.config.atomic_unit))
        k = rng.randint(0, units)
        prefix = data[: k * self.config.atomic_unit]
        if not prefix:
            return  # tore before the first unit: indistinguishable from drop
        if key not in self.media:
            self.media.write(key, 0, b"")  # settle an empty-content checksum
        self.media.corrupt(key, offset, prefix)
        if covering is not None:
            self._torn_keys[key] = covering
        elif getattr(entry, "extent", False):
            self._extents.add(key)  # torn extent: rejected by its digest

    # -- restart / replay ------------------------------------------------------

    def _replay(self, stats: WalReplayStats) -> tuple[ObjectStore, dict[str, int]]:
        """Pure function of durable state -> (recovered store, versions).

        Checksum pass over media keys first (torn writes detected here;
        torn-but-covered keys are kept and healed by their record), then
        the log replays in seq order up to the first gap or torn record.
        """
        ws = ObjectStore()
        versions = dict(self.durable_versions)
        for key in self.media.object_names():
            if key in self._extents:
                continue  # referenced (or rejected) via commit records
            clean = self.media.verify(key)
            if not clean:
                stats.torn_detected += 1
                self._m_torn.add()
                if key not in self._torn_keys:
                    # Torn with no durable record covering it: the write
                    # was never acked — drop the key, never serve it.
                    stats.keys_dropped += 1
                    self._m_dropped.add()
                    versions.pop(key, None)
                    continue
            ws.copy_from(self.media, key)
        expected = self.checkpoint_seq + 1
        for i, rec in enumerate(self.log):
            if rec.seq != expected or not rec.valid:
                stats.records_discarded += len(self.log) - i
                break
            expected += 1
            if rec.kind == "deferred":
                if rec.whole and rec.key in ws:
                    ws.delete(rec.key)
                ws.write(rec.key, rec.offset, rec.data)
                versions[rec.key] = rec.version
            elif rec.kind == "commit":
                # One digest decides: the record is durable only after its
                # extent's barrier, so the extent it names cannot tear;
                # an extent that is lost, or that now holds other bytes,
                # fails the comparison with the record's payload digest.
                if (
                    rec.extent_key not in self.media
                    or self.media.content_digest(rec.extent_key) != rec.extent_checksum
                ):
                    # The commit never became durable as a whole — skip
                    # it (unacked by construction: ack follows the record
                    # *and* the extent barrier, and both flushed => both
                    # durable).
                    stats.commits_skipped += 1
                    continue
                if rec.whole and rec.key in ws:
                    ws.delete(rec.key)
                ws.write(rec.key, rec.offset, self.media.read(rec.extent_key, 0, rec.length))
                versions[rec.key] = rec.version
            elif rec.kind == "delete":
                if rec.key in ws:
                    ws.delete(rec.key)
                if rec.version < 0:
                    versions.pop(rec.key, None)
                else:
                    versions[rec.key] = rec.version
            stats.records_replayed += 1
            self._m_replayed.add()
        return ws, versions

    def recover(self) -> WalReplayStats:
        """Restart: replay the log, re-derive checksums, hand the owner a
        crash-consistent store, and checkpoint-compact.

        Synchronous (no simulated time): the outage duration is governed
        by the fault timeline, not the replay.  Also covers a *process*
        crash (power stayed on): surviving volatile entries persist
        first, so nothing acked is lost to a mere restart.
        """
        for entry in self.device.drop_volatile():
            entry.persist()
        stats = WalReplayStats()
        ws, versions = self._replay(stats)
        stats.objects_recovered = len(ws)
        stats.bytes_recovered = ws.used_bytes
        self.owner.store = ws
        self.owner.versions = versions
        # Checkpoint-compact: the recovered image becomes the new media
        # base; the log starts empty past every allocated seq.
        media = ObjectStore()
        for name in ws.object_names():
            media.copy_from(ws, name)
        self.media = media
        self.durable_versions = dict(versions)
        self.log = []
        self._applied.clear()
        self._extents.clear()
        self._torn_keys.clear()
        self.checkpoint_seq = self._seq
        self._journal_off = 0
        self.replays += 1
        self._m_replays.add()
        self._event("replay", self.replays)
        return stats

    @property
    def log_depth(self) -> int:
        """Un-trimmed records in the durable log."""
        return len(self.log)


__all__ = [
    "DurabilityConfig",
    "WalRecord",
    "WalReplayStats",
    "WriteAheadLog",
    "JOURNAL_KEY",
]
