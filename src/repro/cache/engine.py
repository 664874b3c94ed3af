"""The cache engine: an Open-CAS-style tier in front of an RBD image.

:class:`CachedImage` is interface-compatible with
:class:`repro.osd.rbd.RBDImage` (``read`` / ``write`` generators plus
the attributes the drivers touch), so it drops between any blk-mq
driver and the distributed backend without either side changing.

Correctness invariants the implementation maintains:

* a **clean** resident line's bytes always equal what a backend read of
  that range would return (write-around and bypass writes update
  resident copies only *after* the backend write completes);
* a **dirty** line is never silently discarded — eviction, epoch
  invalidation, and explicit :meth:`flush` write it back first, through
  the normal :class:`repro.osd.policy.OpPolicy` retry/failover path, so
  dirty data survives OSD crashes mid-flush;
* any OSDMap **epoch bump** flushes all dirty lines and drops every
  resident line before the next access is served, so a map change can
  never expose stale cached data;
* concurrent in-flight ops (iodepth > 1) re-check residency after every
  simulated wait, so read-your-writes holds under interleaving.

In **pass-through** mode every call delegates untouched — no events, no
spans, no metrics — making the cached stack event-identical to an
uncached one (the golden-trace guarantee).

Span trees: on a traced stack, each access grows one ``cache`` child of
the op's causal ``ctx``, annotated with hit/miss/bypass counts, and every
backend leg (line fill, write-through, flush) nests under it — critical
-path attribution shows exactly whether a request was gated by the
cache device or the fabric.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional

from ..errors import StorageError
from ..obs.context import NULL_SPAN, wrap_span
from ..osd.rbd import RBDImage
from ..sim import NULL_METRICS
from .classify import IoClassifier, IoDesc
from .config import CacheConfig, CacheMode
from .policy import make_cleaning, make_promotion
from .store import CacheLine, CacheLineStore


class StreamDetector:
    """Sequential-stream detection for the cutoff (Open-CAS style).

    Tracks the tails of up to ``max_streams`` concurrent contiguous
    streams; an IO that starts exactly where a tracked stream ended
    extends that stream's byte run.  Oldest stream is forgotten first.
    """

    __slots__ = ("max_streams", "_tails")

    def __init__(self, max_streams: int):
        self.max_streams = max_streams
        #: stream tail offset -> accumulated contiguous bytes.
        self._tails: "OrderedDict[int, int]" = OrderedDict()

    def update(self, offset: int, size: int) -> int:
        """Record one IO; returns the contiguous run it belongs to (bytes)."""
        run = self._tails.pop(offset, 0) + size
        self._tails[offset + size] = run
        while len(self._tails) > self.max_streams:
            self._tails.popitem(last=False)
        return run

    def reset(self) -> None:
        """Forget every tracked stream."""
        self._tails.clear()


class CachedImage:
    """A block cache tier wrapping an :class:`RBDImage`."""

    def __init__(self, image: RBDImage, config: CacheConfig, metrics=None):
        self.image = image
        self.config = config
        self.env = image.client.env
        self.store = CacheLineStore(config.capacity_lines)
        self.classifier = IoClassifier(config.io_classes)
        self.promotion = make_promotion(config)
        self.cleaning = make_cleaning(config)
        self._streams = StreamDetector(config.seq_streams)
        self._epoch = image.client.osdmap.epoch
        #: line_id -> completion event of an in-flight flush.
        self._flush_events: dict[int, object] = {}
        self._dirty_ev = None
        # Plain counters (mirrored into the metrics registry).
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.promotions = 0
        self.promotion_rejects = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.flushed_lines = 0
        self.seq_bypasses = 0
        self.epoch_invalidations = 0
        metrics = metrics or NULL_METRICS
        self._m = {
            name: metrics.counter(f"cache.{name}")
            for name in (
                "read_hits", "read_misses", "write_hits", "write_misses",
                "promotions", "promotion_rejects", "evictions", "dirty_evictions",
                "flushed_lines", "seq_bypasses", "epoch_invalidations",
            )
        }
        #: Per-mode op counters (`cache.ops.wb`, ...).
        self._m_ops = metrics.counter(f"cache.ops.{config.mode.value}")
        self._m_class = {
            name: metrics.counter(f"cache.class.{name}.inserts")
            for name in self.classifier.class_names
        }
        self._g_occupancy = metrics.gauge("cache.occupancy_lines")
        self._g_dirty = metrics.gauge("cache.dirty_lines")
        self._g_hit_ratio = metrics.gauge("cache.hit_ratio")
        if config.mode is CacheMode.WRITE_BACK and self.cleaning.runs:
            self.env.process(self.cleaning.run(self), name=f"cache.{self.cleaning.name}")

    # -- RBDImage interface delegation -------------------------------------------

    @property
    def pool(self):
        return self.image.pool

    @property
    def object_size(self) -> int:
        return self.image.object_size

    @property
    def size_bytes(self) -> int:
        return self.image.size_bytes

    @property
    def client(self):
        return self.image.client

    @property
    def name(self) -> str:
        return self.image.name

    @property
    def direct(self) -> bool:
        return self.image.direct

    @direct.setter
    def direct(self, value: bool) -> None:
        self.image.direct = value

    def object_name(self, index: int) -> str:
        return self.image.object_name(index)

    # -- stats -------------------------------------------------------------------

    def hit_ratio(self) -> float:
        """Read hit fraction so far (0.0 before any read)."""
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    def stats(self) -> dict:
        """Snapshot of every cache counter plus occupancy."""
        return {
            "mode": self.config.mode.value,
            "read_hits": self.read_hits,
            "read_misses": self.read_misses,
            "write_hits": self.write_hits,
            "write_misses": self.write_misses,
            "hit_ratio": self.hit_ratio(),
            "promotions": self.promotions,
            "promotion_rejects": self.promotion_rejects,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "flushed_lines": self.flushed_lines,
            "seq_bypasses": self.seq_bypasses,
            "epoch_invalidations": self.epoch_invalidations,
            "occupancy_lines": self.store.occupancy,
            "dirty_lines": self.store.dirty_count,
        }

    def _count(self, name: str, n: int = 1) -> None:
        setattr(self, name, getattr(self, name) + n)
        self._m[name].add(n)

    def _refresh_gauges(self) -> None:
        self._g_occupancy.set(self.store.occupancy)
        self._g_dirty.set(self.store.dirty_count)
        self._g_hit_ratio.set(self.hit_ratio())

    # -- geometry ----------------------------------------------------------------

    def _check_extent(self, offset: int, length: int) -> None:
        if offset < 0 or length <= 0:
            raise StorageError(f"invalid extent ({offset}, {length})")
        if offset + length > self.size_bytes:
            raise StorageError(
                f"extent ({offset}, {length}) beyond image size {self.size_bytes}"
            )

    def _segments(self, offset: int, length: int) -> list[tuple[int, int, int, int, int]]:
        """Split a byte range into per-line segments.

        Returns ``(line_id, line_off, line_len, seg_off, seg_len)`` per
        overlapped line, where ``line_len`` clamps at the image tail and
        ``seg_off`` is the segment's absolute image offset.
        """
        ls = self.config.line_size
        segs = []
        pos = offset
        end = offset + length
        while pos < end:
            line_id = pos // ls
            line_off = line_id * ls
            line_len = min(ls, self.size_bytes - line_off)
            seg_end = min(end, line_off + line_len)
            segs.append((line_id, line_off, line_len, pos, seg_end - pos))
            pos = seg_end
        return segs

    # -- cleaning support ---------------------------------------------------------

    def dirty_event(self):
        """Event the cleaner sleeps on while no line is dirty."""
        if self._dirty_ev is None:
            self._dirty_ev = self.env.event()
        return self._dirty_ev

    def _kick_cleaner(self) -> None:
        if self._dirty_ev is not None:
            self._dirty_ev.succeed(None)
            self._dirty_ev = None

    # -- flush / invalidate --------------------------------------------------------

    def _flush_line(self, line: CacheLine, ctx=NULL_SPAN) -> Generator:
        """Process: write one dirty line back to the backend.

        Concurrent flushes of the same line coalesce onto one backend
        write; a line re-dirtied *during* its flush is flushed again
        before returning, so "flushed" always means "durable as of the
        newest write seen here".
        """
        pending = self._flush_events.get(line.line_id)
        if pending is not None:
            yield pending
            return
        ev = self.env.event()
        self._flush_events[line.line_id] = ev
        try:
            while line.dirty:
                snapshot = bytes(line.data)
                self.store.note_clean(line)
                try:
                    yield from self.image.write(
                        line.line_id * self.config.line_size, snapshot,
                        sequential=False, ctx=ctx,
                    )
                except Exception:
                    self.store.note_dirty(line, self.env.now)
                    raise
                self._count("flushed_lines")
        finally:
            del self._flush_events[line.line_id]
            ev.succeed(None)
        self._refresh_gauges()

    def flush_lines(self, lines: list[CacheLine], reason: str = "", ctx=NULL_SPAN) -> Generator:
        """Process: write a batch of dirty lines back, in parallel."""
        procs = [
            self.env.process(self._flush_line(line, ctx=ctx), name=f"cache.flush.{reason}")
            for line in lines
        ]
        if procs:
            yield self.env.all_of(procs)

    def flush(self, ctx=NULL_SPAN) -> Generator:
        """Process: write back every dirty line (durable on return).

        Loops until no dirty line remains, so writes that race with the
        flush are flushed too (rather than silently surviving it).
        """
        while self.store.dirty_count:
            yield from self.flush_lines(self.store.dirty_lines_lru(), reason="all", ctx=ctx)

    def invalidate(self) -> int:
        """Drop every resident line (raises if any line is dirty).

        Returns the number of lines dropped.  Callers that may hold
        dirty data must ``yield from flush()`` first.
        """
        dropped = self.store.drop_all()
        self._streams.reset()
        self._refresh_gauges()
        return dropped

    def _sync_epoch(self, ctx=NULL_SPAN) -> Generator:
        """Process: on an OSDMap epoch bump, flush dirty data and drop
        every resident line before serving the access.

        The flush itself may fail over and bump the epoch again; the
        loop converges because a flushed-and-dropped cache has nothing
        left to invalidate.
        """
        client = self.image.client
        while self._epoch != client.osdmap.epoch:
            self._epoch = client.osdmap.epoch
            self._count("epoch_invalidations")
            yield from self.flush(ctx=ctx)
            self.invalidate()

    # -- eviction -----------------------------------------------------------------

    def _cap_lines(self, klass: str) -> int:
        return self.classifier.cap_lines(klass, self.config.capacity_lines)

    def _make_room(self, klass: str) -> Generator:
        """Process: evict (flushing dirty victims) until one line of
        class ``klass`` fits under both the global and class caps."""
        store = self.store
        while True:
            if store.occupancy >= self.config.capacity_lines:
                victim = store.victim()
            elif store.class_occupancy(klass) >= self._cap_lines(klass):
                victim = store.victim(klass)
            else:
                return
            if victim is None:
                return
            if victim.dirty:
                self._count("dirty_evictions")
                yield from self._flush_line(victim)
                if victim.dirty:
                    continue  # re-dirtied mid-flush; flush again
            if victim.line_id in store:
                store.remove(victim.line_id)
                self._count("evictions")

    def _insert_line(self, line_id: int, line_len: int, data: bytearray,
                     klass: str, dirty: bool) -> Generator:
        """Process: insert a fully-populated line, evicting as needed.

        If a concurrent op made the line resident while we were filling,
        the resident copy wins (it is at least as new) and for writes the
        incoming bytes were already overlaid by the caller.
        """
        if line_id in self.store:
            return
        yield from self._make_room(klass)
        line = CacheLine(line_id, data, klass, self.env.now)
        if dirty:
            line.mark_dirty(self.env.now)
        self.store.insert(line)
        self._count("promotions")
        self._m_class[klass].add()
        if dirty:
            self._kick_cleaner()
        self._refresh_gauges()

    # -- backend helpers ----------------------------------------------------------

    def _fetch_line(self, line_off: int, line_len: int, ctx=NULL_SPAN, tenant: str = "") -> Generator:
        """Process: read one full (clamped) line from the backend.

        ``tenant`` attributes the fill to the op that missed; lazy
        flush/cleaner traffic stays untagged (cache housekeeping).
        """
        data = yield from self.image.read(line_off, line_len, ctx=ctx, tenant=tenant)
        return data

    # -- the datapath --------------------------------------------------------------

    def read(self, offset: int, length: int, ctx=NULL_SPAN, tenant: str = "") -> Generator:
        """Process: cached read; returns bytes (read-your-writes exact)."""
        config = self.config
        if config.mode is CacheMode.PASS_THROUGH:
            data = yield from self.image.read(offset, length, ctx=ctx, tenant=tenant)
            return data
        self._check_extent(offset, length)
        self._m_ops.add()
        yield from self._sync_epoch(ctx=ctx)
        run = self._streams.update(offset, length)
        desc = IoDesc("read", length, sequential=run > length)
        span = ctx.child("cache", "cache", mode=config.mode.value, op="read")
        segs = self._segments(offset, length)
        bypass = (
            config.seq_cutoff_bytes > 0
            and run >= config.seq_cutoff_bytes
            and not any(
                (ln := self.store.peek(s[0])) is not None and ln.dirty for s in segs
            )
        )
        if bypass:
            # Long contiguous stream with no dirty overlap: the backend
            # serves it directly and the cache stays unpolluted.
            self._count("seq_bypasses")
            try:
                data = yield from self.image.read(offset, length, ctx=span, tenant=tenant)
            finally:
                span.finish(bypass=True)
            return data
        klass = self.classifier.classify(desc)
        now = self.env.now
        parts: dict[int, Optional[bytes]] = {}
        hit_bytes = 0
        fetches: dict[int, object] = {}
        hits = misses = 0
        for line_id, line_off, line_len, seg_off, seg_len in segs:
            line = self.store.lookup(line_id, now)
            if line is not None:
                hits += 1
                hit_bytes += seg_len
                rel = seg_off - line_off
                parts[line_id] = bytes(line.data[rel : rel + seg_len])
            else:
                misses += 1
                leg = span.child(f"fill.{line_id}", "fanout", line=line_id)
                fetches[line_id] = self.env.process(
                    wrap_span(leg, self._fetch_line(line_off, line_len, ctx=leg, tenant=tenant)),
                    name="cache.fill",
                )
        self._count("read_hits", hits)
        self._count("read_misses", misses)
        if hit_bytes:
            yield self.env.timeout(config.read_cost_ns(hit_bytes))
        inserted_bytes = 0
        if fetches:
            results = yield self.env.all_of(list(fetches.values()))
            for line_id, line_off, line_len, seg_off, seg_len in segs:
                proc = fetches.get(line_id)
                if proc is None:
                    continue
                full = results[proc]
                rel = seg_off - line_off
                resident = self.store.peek(line_id)
                if resident is not None:
                    # A concurrent op promoted (or wrote) this line while
                    # we fetched: its copy is newer — serve that.
                    parts[line_id] = bytes(resident.data[rel : rel + seg_len])
                    continue
                parts[line_id] = full[rel : rel + seg_len]
                if self.promotion.should_promote(line_id):
                    yield from self._insert_line(
                        line_id, line_len, bytearray(full), klass, dirty=False
                    )
                    inserted_bytes += line_len
                else:
                    self._count("promotion_rejects")
        if inserted_bytes:
            # Filling the cache device costs its write bandwidth.
            yield self.env.timeout(config.write_cost_ns(inserted_bytes))
        self._refresh_gauges()
        span.finish(hits=hits, misses=misses)
        return b"".join(parts[s[0]] for s in segs)

    def write(
        self, offset: int, data: bytes, sequential: bool = False, ctx=NULL_SPAN,
        tenant: str = "",
    ) -> Generator:
        """Process: cached write under the configured mode."""
        config = self.config
        if config.mode is CacheMode.PASS_THROUGH:
            yield from self.image.write(offset, data, sequential=sequential, ctx=ctx, tenant=tenant)
            return
        length = len(data)
        self._check_extent(offset, length)
        self._m_ops.add()
        yield from self._sync_epoch(ctx=ctx)
        run = self._streams.update(offset, length)
        desc = IoDesc("write", length, sequential=sequential or run > length)
        span = ctx.child("cache", "cache", mode=config.mode.value, op="write")
        bypass = config.seq_cutoff_bytes > 0 and (
            run >= config.seq_cutoff_bytes
            or (sequential and length >= config.seq_cutoff_bytes)
        )
        if bypass or config.mode is CacheMode.WRITE_AROUND:
            if bypass:
                self._count("seq_bypasses")
            try:
                yield from self.image.write(
                    offset, data, sequential=sequential, ctx=span, tenant=tenant
                )
            finally:
                span.finish(bypass=bypass)
            # Only after the backend write is durable may resident copies
            # change, so a failed write cannot strand stale "clean" data.
            self._update_resident(offset, data)
            return
        if config.mode is CacheMode.WRITE_THROUGH:
            yield from self._write_through(offset, data, desc, span, sequential, tenant)
        else:
            yield from self._write_back(offset, data, desc, span, tenant)
        self._refresh_gauges()
        span.finish()

    # -- write helpers -------------------------------------------------------------

    def _update_resident(self, offset: int, data: bytes) -> int:
        """Overlay a written range onto any resident lines (in place).

        Dirty lines stay dirty; clean lines stay clean — after the
        backend write that preceded this call, both still satisfy their
        invariants.  Returns the number of lines updated.
        """
        now = self.env.now
        updated = 0
        for line_id, line_off, _line_len, seg_off, seg_len in self._segments(offset, len(data)):
            line = self.store.lookup(line_id, now)
            if line is None:
                continue
            rel_src = seg_off - offset
            rel_dst = seg_off - line_off
            line.data[rel_dst : rel_dst + seg_len] = data[rel_src : rel_src + seg_len]
            updated += 1
        return updated

    def _write_through(
        self, offset: int, data: bytes, desc: IoDesc, span, sequential: bool,
        tenant: str = "",
    ) -> Generator:
        """WT: backend write first, then mirror into the cache.

        Write misses promote only full-line segments — a partial-line
        miss would need a read-fill just to hold data the backend
        already has, so it stays uncached until a read promotes it.
        """
        leg = span.child("backend", "fanout", op="write")
        yield from wrap_span(leg, self.image.write(
            offset, data, sequential=sequential, ctx=leg, tenant=tenant,
        ))
        klass = self.classifier.classify(desc)
        cached_bytes = 0
        for line_id, line_off, line_len, seg_off, seg_len in self._segments(offset, len(data)):
            line = self.store.lookup(line_id, self.env.now)
            rel_src = seg_off - offset
            if line is not None:
                self._count("write_hits")
                rel_dst = seg_off - line_off
                line.data[rel_dst : rel_dst + seg_len] = data[rel_src : rel_src + seg_len]
                cached_bytes += seg_len
                continue
            self._count("write_misses")
            if seg_len == line_len and self.promotion.should_promote(line_id):
                yield from self._insert_line(
                    line_id, line_len, bytearray(data[rel_src : rel_src + seg_len]),
                    klass, dirty=False,
                )
                cached_bytes += line_len
            elif seg_len == line_len:
                self._count("promotion_rejects")
        if cached_bytes:
            yield self.env.timeout(self.config.write_cost_ns(cached_bytes))

    def _write_back(
        self, offset: int, data: bytes, desc: IoDesc, span, tenant: str = ""
    ) -> Generator:
        """WB: dirty the cache; only non-promoted segments touch the
        backend now, everything else flushes lazily."""
        klass = self.classifier.classify(desc)
        now = self.env.now
        cached_bytes = 0
        fills: dict[int, object] = {}
        fill_segs: dict[int, tuple[int, int, int, int, int]] = {}
        backend_segs: list[tuple[int, int]] = []  # (abs offset, len)
        full_inserts: list[tuple[int, int, int, int, int]] = []
        dirtied = False
        for seg in self._segments(offset, len(data)):
            line_id, line_off, line_len, seg_off, seg_len = seg
            line = self.store.lookup(line_id, now)
            rel_src = seg_off - offset
            if line is not None:
                self._count("write_hits")
                rel_dst = seg_off - line_off
                line.data[rel_dst : rel_dst + seg_len] = data[rel_src : rel_src + seg_len]
                self.store.note_dirty(line, now)
                dirtied = True
                cached_bytes += seg_len
                continue
            self._count("write_misses")
            if not self.promotion.should_promote(line_id):
                self._count("promotion_rejects")
                backend_segs.append((seg_off, seg_len))
                continue
            if seg_len == line_len:
                full_inserts.append(seg)
                cached_bytes += line_len
            else:
                # Partial-line miss: read-fill so the whole line is
                # valid, then overlay the new bytes and dirty it.
                leg = span.child(f"fill.{line_id}", "fanout", line=line_id)
                fills[line_id] = self.env.process(
                    wrap_span(leg, self._fetch_line(line_off, line_len, ctx=leg, tenant=tenant)),
                    name="cache.fill",
                )
                fill_segs[line_id] = seg
                cached_bytes += line_len
        backend_procs = []
        for seg_off, seg_len in _coalesce(backend_segs):
            leg = span.child("backend", "fanout", op="write")
            rel = seg_off - offset
            backend_procs.append(self.env.process(
                wrap_span(leg, self.image.write(
                    seg_off, data[rel : rel + seg_len], sequential=False, ctx=leg,
                    tenant=tenant,
                )),
                name="cache.wb-miss",
            ))
        if cached_bytes:
            yield self.env.timeout(self.config.write_cost_ns(cached_bytes))
        for line_id, line_off, line_len, seg_off, seg_len in full_inserts:
            rel_src = seg_off - offset
            resident = self.store.peek(line_id)
            if resident is not None:
                rel_dst = seg_off - line_off
                resident.data[rel_dst : rel_dst + seg_len] = data[rel_src : rel_src + seg_len]
                self.store.note_dirty(resident, self.env.now)
            else:
                yield from self._insert_line(
                    line_id, line_len, bytearray(data[rel_src : rel_src + seg_len]),
                    klass, dirty=True,
                )
            dirtied = True
        if fills:
            results = yield self.env.all_of(list(fills.values()))
            for line_id, proc in fills.items():
                _lid, line_off, line_len, seg_off, seg_len = fill_segs[line_id]
                rel_src = seg_off - offset
                rel_dst = seg_off - line_off
                resident = self.store.peek(line_id)
                if resident is not None:
                    resident.data[rel_dst : rel_dst + seg_len] = data[rel_src : rel_src + seg_len]
                    self.store.note_dirty(resident, self.env.now)
                else:
                    full = bytearray(results[proc])
                    full[rel_dst : rel_dst + seg_len] = data[rel_src : rel_src + seg_len]
                    yield from self._insert_line(line_id, line_len, full, klass, dirty=True)
                dirtied = True
        if backend_procs:
            yield self.env.all_of(backend_procs)
        if dirtied:
            self._kick_cleaner()


def _coalesce(segs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge adjacent (offset, len) extents into maximal runs."""
    out: list[tuple[int, int]] = []
    for seg_off, seg_len in sorted(segs):
        if out and out[-1][0] + out[-1][1] == seg_off:
            out[-1] = (out[-1][0], out[-1][1] + seg_len)
        else:
            out.append((seg_off, seg_len))
    return out
