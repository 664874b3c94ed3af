"""Cache tier: store/policy/classifier units and engine semantics.

The engine tests drive a :class:`CachedImage` directly over a small
cluster (no full framework, except one iodepth-8 line-fill race
reproducer) so every mode's datapath is exercised fast; the
framework-level integration (PT golden identity, capacity curve,
WB-vs-WT) lives in ``repro.bench.cachebench`` and its CI smoke.
"""

import pytest

from repro.blk import IoOp
from repro.cache import (
    CacheConfig,
    CacheMode,
    CachedImage,
    CacheLine,
    CacheLineStore,
    IoClassifier,
    IoClassRule,
    IoDesc,
    NHitPromote,
    parse_cache_mode,
)
from repro.cache.engine import StreamDetector
from repro.deliba import PoolSpec, build_framework, framework_by_name
from repro.errors import CacheError
from repro.osd import ClusterSpec, RBDImage, build_cluster
from repro.sim import Environment, RngStream
from repro.units import kib, mib, us
from repro.workloads import FioJob, ZipfJob

ALL_MODES = (
    CacheMode.PASS_THROUGH,
    CacheMode.WRITE_THROUGH,
    CacheMode.WRITE_BACK,
    CacheMode.WRITE_AROUND,
)


def small_image(object_size=mib(1), image_size=mib(8)):
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=4))
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    return env, cluster, RBDImage("vm", image_size, pool, client, object_size=object_size)


def cached(mode, env, image, **kw):
    kw.setdefault("line_size", kib(16))
    kw.setdefault("capacity_lines", 32)
    return CachedImage(image, CacheConfig(mode=mode, **kw))


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


# -- store units ---------------------------------------------------------------------


def _line(line_id, klass="small", size=kib(16)):
    return CacheLine(line_id, bytearray(size), klass, 0)


def test_store_lru_order_tracks_lookups():
    store = CacheLineStore(4)
    for i in range(3):
        store.insert(_line(i))
    store.lookup(0, now_ns=10)  # refresh 0 -> order 1, 2, 0
    assert [ln.line_id for ln in store.lines_lru()] == [1, 2, 0]
    assert store.victim().line_id == 1


def test_store_victim_within_class():
    store = CacheLineStore(4)
    store.insert(_line(0, "small"))
    store.insert(_line(1, "large"))
    store.insert(_line(2, "small"))
    assert store.victim("large").line_id == 1
    assert store.class_occupancy("small") == 2


def test_store_dirty_accounting_exact():
    store = CacheLineStore(4)
    store.insert(_line(0))
    line = store.peek(0)
    store.note_dirty(line, 5)
    store.note_dirty(line, 9)  # idempotent
    assert store.dirty_count == 1
    assert line.dirty_since_ns == 5
    store.note_clean(line)
    store.note_clean(line)
    assert store.dirty_count == 0


def test_store_refuses_overfill_and_dirty_drop():
    store = CacheLineStore(1)
    store.insert(_line(0))
    with pytest.raises(CacheError):
        store.insert(_line(1))
    store.note_dirty(store.peek(0), 1)
    with pytest.raises(CacheError):
        store.drop_all()
    store.note_clean(store.peek(0))
    assert store.drop_all() == 1
    assert store.occupancy == 0


# -- classifier / config / policy units ----------------------------------------------


def test_classifier_first_match_and_fallback():
    clf = IoClassifier()
    assert clf.classify(IoDesc("read", kib(4))) == "small"
    assert clf.classify(IoDesc("read", kib(256), sequential=True)) == "seq-large"
    assert clf.classify(IoDesc("write", kib(64))) == "medium"
    nomatch = IoClassifier((IoClassRule("tiny", lambda io: io.size < 512),))
    assert nomatch.classify(IoDesc("read", kib(4))) == "other"


def test_classifier_caps_floor_at_one_line():
    clf = IoClassifier((IoClassRule("scan", lambda io: True, occupancy_cap=0.01),))
    assert clf.cap_lines("scan", 8) == 1
    assert clf.cap_lines("other", 8) == 8


def test_config_validation():
    with pytest.raises(CacheError):
        CacheConfig(line_size=1000)  # not a sector multiple
    with pytest.raises(CacheError):
        CacheConfig(promotion="sometimes")
    with pytest.raises(CacheError):
        CacheConfig(cleaning="eager")
    assert parse_cache_mode("write-back") is CacheMode.WRITE_BACK
    with pytest.raises(CacheError):
        parse_cache_mode("wbx")


def test_nhit_promotes_at_threshold():
    pol = NHitPromote(threshold=3)
    assert not pol.should_promote(7)
    assert not pol.should_promote(7)
    assert pol.should_promote(7)


def test_stream_detector_accumulates_contiguous_runs():
    det = StreamDetector(max_streams=2)
    assert det.update(0, kib(64)) == kib(64)
    assert det.update(kib(64), kib(64)) == kib(128)
    assert det.update(mib(4), kib(4)) == kib(4)  # unrelated stream
    assert det.update(kib(128), kib(64)) == kib(192)  # first stream continues


# -- engine semantics ----------------------------------------------------------------


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_read_your_writes_byte_identical(mode):
    env, _cluster, image = small_image()
    c = cached(mode, env, image, cleaning="nop")
    base = kib(16) - 512  # straddle a line boundary
    payload = bytes(range(256)) * 8  # 2 KiB
    run(env, c.write(base, payload))
    assert run(env, c.read(base, len(payload))) == payload
    # Partial overwrite inside a resident line.
    run(env, c.write(base + 512, b"\xC3" * 1024))
    got = run(env, c.read(base, len(payload)))
    assert got[:512] == payload[:512]
    assert got[512:1536] == b"\xC3" * 1024
    assert got[1536:] == payload[1536:]


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_flush_makes_backend_agree(mode):
    env, _cluster, image = small_image()
    c = cached(mode, env, image, cleaning="nop")
    for i in range(6):
        run(env, c.write(i * kib(16), bytes([i + 1]) * kib(16)))
    run(env, c.flush())
    for i in range(6):
        assert run(env, image.read(i * kib(16), kib(16))) == bytes([i + 1]) * kib(16)


def test_eviction_respects_capacity_and_preserves_data():
    env, _cluster, image = small_image()
    c = cached(CacheMode.WRITE_BACK, env, image, capacity_lines=8, cleaning="nop")
    for i in range(24):
        run(env, c.write(i * kib(16), bytes([i + 1]) * kib(16)))
    assert c.store.occupancy <= 8
    assert c.evictions > 0 and c.dirty_evictions > 0
    for i in range(24):  # evicted dirty lines were flushed, not lost
        assert run(env, c.read(i * kib(16), kib(16))) == bytes([i + 1]) * kib(16)


def test_sequential_cutoff_bypasses_and_keeps_cache_cold():
    env, _cluster, image = small_image()
    c = cached(
        CacheMode.WRITE_THROUGH, env, image,
        seq_cutoff_bytes=kib(64), capacity_lines=64,
    )
    for i in range(16):  # one long contiguous read stream
        run(env, c.read(i * kib(16), kib(16)))
    assert c.seq_bypasses > 0
    # Only the pre-cutoff head of the stream was promoted.
    assert c.store.occupancy <= 4


def test_bypass_read_never_skips_dirty_data():
    env, _cluster, image = small_image()
    c = cached(
        CacheMode.WRITE_BACK, env, image,
        seq_cutoff_bytes=kib(32), cleaning="nop",
    )
    run(env, c.write(kib(64), b"\xBE" * kib(16)))  # dirty, unflushed
    # A contiguous scan over the dirty range: the cutoff must not serve
    # the stale backend copy.
    got = [run(env, c.read(i * kib(16), kib(16))) for i in range(8)]
    assert got[4] == b"\xBE" * kib(16)


def test_write_around_updates_backend_and_resident_copy():
    env, _cluster, image = small_image()
    c = cached(CacheMode.WRITE_AROUND, env, image, seq_cutoff_bytes=0)
    run(env, c.read(0, kib(16)))  # promote the line
    run(env, c.write(0, b"\x77" * kib(16)))
    assert c.store.dirty_count == 0  # WA never dirties
    assert run(env, image.read(0, kib(16))) == b"\x77" * kib(16)  # backend current
    assert run(env, c.read(0, kib(16))) == b"\x77" * kib(16)  # resident copy too


@pytest.mark.parametrize("mode", [CacheMode.WRITE_THROUGH, CacheMode.WRITE_BACK],
                         ids=lambda m: m.value)
def test_line_fill_racing_an_acked_write_reads_back_clean(mode):
    """A read-miss fill of a 64 KiB line that races a write to another
    block of the same line must not install its pre-write bytes: at
    iodepth 8, WT used to read back zeros at offset 319488."""
    cfg = framework_by_name("delibak")
    fw = build_framework(
        cfg,
        pool_spec=PoolSpec(size=3),
        cluster_spec=ClusterSpec(
            num_server_hosts=3, osds_per_host=4, client_stack=cfg.client_stack, seed=0
        ),
        cache=CacheConfig(mode=mode),
    )
    job = FioJob("probe", "randrw", bs=kib(4), iodepth=8, size=mib(8), nrequests=200,
                 rwmixread=0.5)
    bios = job.make_bios(fw.rng.stream("fio.probe.j0"), payload_byte=0xA5)
    run(fw.env, fw.engine.run(bios, 8))
    run(fw.env, fw.cache.flush())
    for offset in sorted({b.offset for b in bios if b.op is IoOp.WRITE}):
        assert run(fw.env, fw.image.read(offset, kib(4))) == b"\xA5" * kib(4), offset
        assert run(fw.env, fw.cache.image.read(offset, kib(4))) == b"\xA5" * kib(4), offset


@pytest.mark.parametrize("delay_ns", [0, us(5)])
def test_wb_line_fill_racing_a_backend_write_loses_nothing(delay_ns):
    """A WB write whose promotion is rejected goes straight to the
    backend; a partial write to the same line then fills and dirties it.
    The fill must not carry pre-write bytes into the flush, or the flush
    overwrites the acked write.  Delay 0: the fill completes before the
    backend write is acked; 5 us: the ack lands while the fill is in
    flight."""
    env, _cluster, image = small_image()
    c = cached(
        CacheMode.WRITE_BACK, env, image,
        promotion="nhit", promotion_hit_threshold=2, seq_cutoff_bytes=0, cleaning="nop",
    )

    def racing_writes():
        first = env.process(c.write(0, b"\xAA" * kib(4)))  # rejected: backend
        yield env.timeout(delay_ns)
        second = env.process(c.write(kib(4), b"\xBB" * kib(4)))  # promoted: fill
        yield env.all_of([first, second])

    run(env, racing_writes())
    run(env, c.flush())
    assert run(env, image.read(0, kib(8))) == b"\xAA" * kib(4) + b"\xBB" * kib(4)
    assert run(env, c.read(0, kib(8))) == b"\xAA" * kib(4) + b"\xBB" * kib(4)


@pytest.mark.parametrize(
    "lines, cleaning, seed", [(64, "nop", 0), (64, "nop", 1), (16, "alru", 2)]
)
def test_wb_concurrent_writes_keep_every_acked_write(lines, cleaning, seed):
    """300 random 4 KiB writes with unique payloads at iodepth 8 through
    a small WB cache; after a flush, every block reads back, through a
    second client, the last payload acked for it.

    A write miss makes room for its line, and the eviction may wait on a
    dirty victim's write-back; meanwhile a concurrent op can insert the
    same line.  The insert used to find the line resident only then and
    crash (``CacheError: line N already resident``).  Now the resident
    line wins and the write overlays only its own bytes onto it.

    With 16 lines and the ALRU cleaner, an eviction used to drop a line
    whose cleaner write-back was still in flight (the write-back marks
    it clean when it starts); a partial write to the line then filled it
    from the backend before that write landed, and the stale fill lost
    an acked block."""
    fw = build_framework(
        framework_by_name("delibak"), seed=seed,
        cache=CacheConfig(mode=CacheMode.WRITE_BACK, capacity_lines=lines, cleaning=cleaning),
    )
    job = FioJob("cli", "randwrite", bs=kib(4), iodepth=8, nrequests=300)
    bios = job.make_bios(fw.rng.stream("fio.cli.j0"))
    for i, bio in enumerate(bios):
        bio.data = i.to_bytes(4, "little") * (kib(4) // 4)
    acked = {}
    submit = fw.blk.submit_bio

    def tracked_submit(core, bio):
        request = yield from submit(core, bio)
        request.completion.callbacks.append(
            lambda _ev: acked.update((b.offset, b.data) for b in request.bios)
        )
        return request

    fw.blk.submit_bio = tracked_submit
    run(fw.env, fw.engine.run(bios, 8))
    run(fw.env, fw.cache.flush())
    backend = fw.cache.image
    image = RBDImage("bench", backend.size_bytes, backend.pool, fw.cluster.new_client("check"),
                     object_size=backend.object_size)
    assert len(acked) > 200
    for offset, payload in sorted(acked.items()):
        assert run(fw.env, image.read(offset, kib(4))) == payload, offset


def test_flush_waits_for_a_write_back_already_in_flight():
    """A line is marked clean when its write-back starts.  A second
    flush() must still wait for that write: an epoch bump's flush +
    invalidate used to drop the line early, and a refill then read (and
    later flushed back) the pre-flush bytes, losing acked writes."""
    env, _cluster, image = small_image()
    c = cached(CacheMode.WRITE_BACK, env, image, cleaning="nop")
    run(env, c.write(0, b"\xAB" * kib(16)))

    def overlapping_flushes():
        env.process(c.flush())  # starts the write-back of line 0
        yield env.timeout(1)
        assert c.store.dirty_count == 0 and c._flush_events
        yield from c.flush()
        return (yield from image.read(0, kib(16)))

    assert run(env, overlapping_flushes()) == b"\xAB" * kib(16)


@pytest.mark.parametrize(
    "name, iodepth, kind",
    [("delibak", 1, "write_direct"), ("delibak", 8, "write_direct"),
     ("software-ceph", 8, "write")],
)
def test_write_backs_use_the_stack_topology(name, iodepth, kind):
    """A flush outside any driver request writes back the way the stack's
    driver fans out.  The direct flag used to be flipped around every
    request, so a D-K flush after an iodepth-1 run found it False and
    wrote through the primary, like software Ceph."""
    fw = build_framework(
        framework_by_name(name), cache=CacheConfig(mode=CacheMode.WRITE_BACK, cleaning="nop")
    )
    job = FioJob("probe", "randwrite", bs=kib(4), iodepth=iodepth, size=mib(64), nrequests=300)
    run(fw.env, fw.engine.run(job.make_bios(fw.rng.stream("fio.probe.j0")), iodepth))
    client = fw.cache.image.client
    kinds = []
    call = client.call

    def counting_call(dst, op, timeout_ns=None):
        kinds.append(op.kind.value)
        return call(dst, op, timeout_ns=timeout_ns)

    client.call = counting_call
    run(fw.env, fw.cache.flush())
    assert kinds and set(kinds) == {kind}


def test_pass_through_touches_no_cache_state():
    env, _cluster, image = small_image()
    c = cached(CacheMode.PASS_THROUGH, env, image)
    run(env, c.write(0, b"\x11" * kib(16)))
    assert run(env, c.read(0, kib(16))) == b"\x11" * kib(16)
    s = c.stats()
    assert s["read_hits"] + s["read_misses"] + s["write_hits"] + s["write_misses"] == 0
    assert c.store.occupancy == 0


def test_promotion_nhit_delays_insertion():
    env, _cluster, image = small_image()
    c = cached(
        CacheMode.WRITE_THROUGH, env, image,
        promotion="nhit", promotion_hit_threshold=2, seq_cutoff_bytes=0,
    )
    run(env, c.read(0, kib(16)))
    assert c.store.occupancy == 0 and c.promotion_rejects == 1
    run(env, c.read(0, kib(16)))
    assert c.store.occupancy == 1  # second touch promotes


def test_class_occupancy_cap_enforced():
    env, _cluster, image = small_image()
    rules = (IoClassRule("small", lambda io: io.size <= kib(16), 0.25),)
    c = cached(
        CacheMode.WRITE_THROUGH, env, image,
        capacity_lines=16, io_classes=rules, seq_cutoff_bytes=0,
    )
    for i in range(12):
        run(env, c.read(i * kib(16), kib(16)))
    # 25% of 16 lines = 4: the scan may hold at most that many.
    assert c.store.class_occupancy("small") <= 4


def test_epoch_bump_invalidates_resident_lines():
    env, cluster, image = small_image()
    c = cached(CacheMode.WRITE_BACK, env, image, cleaning="nop", seq_cutoff_bytes=0)
    run(env, c.write(0, b"\x42" * kib(16)))
    assert c.store.occupancy == 1 and c.store.dirty_count == 1
    cluster.osdmap.mark_down(0)
    cluster.osdmap.mark_up(0)
    assert run(env, c.read(0, kib(16))) == b"\x42" * kib(16)
    assert c.epoch_invalidations >= 1
    # The dirty line was flushed (not dropped) before invalidation.
    assert c.flushed_lines >= 1


# -- hit-ratio behavior --------------------------------------------------------------


def _replay_hit_ratio(theta: float, capacity_lines: int = 24, nreq: int = 300) -> float:
    env, _cluster, image = small_image()
    c = cached(
        CacheMode.WRITE_THROUGH, env, image,
        line_size=kib(4), capacity_lines=capacity_lines, seq_cutoff_bytes=0,
    )
    job = ZipfJob(name="z", rw="randread", bs=kib(4), size=mib(4), nrequests=nreq, theta=theta)
    bios = job.make_bios(RngStream(0, "zipf-test"))
    for bio in bios:
        run(env, c.read(bio.offset, bio.size))
    return c.hit_ratio()


def test_zipf_hit_ratio_beats_uniform():
    assert _replay_hit_ratio(theta=1.1) > _replay_hit_ratio(theta=0.0)


def test_hit_ratio_monotone_in_capacity():
    ratios = [_replay_hit_ratio(theta=0.99, capacity_lines=n) for n in (8, 32, 128)]
    assert ratios == sorted(ratios)
