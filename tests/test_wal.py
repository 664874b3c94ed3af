"""Unit tests for the per-OSD WAL commit pipeline (repro.osd.wal)."""

import hashlib

import pytest

from repro.bench import crashsim
from repro.errors import StorageError
from repro.osd import DurabilityConfig, NVME_SSD, StorageDevice, WalRecord, WriteAheadLog
from repro.osd import objects as objects_module
from repro.osd import wal as wal_module
from repro.osd.faults import _scaled_profile
from repro.osd.objects import ObjectStore
from repro.osd.wal import JOURNAL_KEY, TORN_CHECKSUM
from repro.sim import Environment, RngRegistry
from repro.units import kib


class Owner:
    """Stub OSD daemon: just the visible state the WAL manages."""

    def __init__(self):
        self.store = ObjectStore()
        self.versions = {}
        self.entity = "osd.0"


def make(config=None, seed=0, with_rng=True):
    env = Environment()
    rng = RngRegistry(seed)
    device = StorageDevice(env, NVME_SSD, rng=None, name="d0")
    owner = Owner()
    wal = WriteAheadLog(
        env, device, owner, config, rng=rng.stream("wal.0") if with_rng else None
    )
    return env, device, owner, wal


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


def test_deferred_write_visible_and_durable():
    env, device, owner, wal = make()
    run(env, wal.write("obj", 0, b"a" * 4096, False, version=1))
    assert wal.deferred_writes == 1 and wal.commit_writes == 0
    assert owner.store.read("obj", 0, 4096) == b"a" * 4096
    # The record was flushed before the ack: replay must reach it even
    # if every later volatile entry is lost.
    assert any(r.key == "obj" for r in wal.log) or "obj" in wal.media


def test_commit_write_stages_extent_then_remaps():
    env, device, owner, wal = make(DurabilityConfig(defer_threshold=64))
    data = b"b" * 4096
    run(env, wal.write("obj", 0, data, True, version=1))
    assert wal.commit_writes == 1 and wal.deferred_writes == 0
    run(env, wal.sync())
    assert wal.media.read("obj", 0, 4096) == data
    # The staged extent was consumed by the install remap.
    assert not any("~x" in k for k in wal.media.object_names())
    assert wal.durable_versions["obj"] == 1
    # The install, replay and compaction move the payload by reference:
    # media and the visible store hold the written bytes object itself.
    assert wal.media.read("obj", 0, 4096) is data
    assert owner.store.read("obj", 0, 4096) is data
    wal.recover()
    assert wal.media.read("obj", 0, 4096) is data
    assert owner.store.read("obj", 0, 4096) is data


def test_journal_writes_hit_the_device():
    env, device, owner, wal = make()
    run(env, wal.write("obj", 0, b"c" * 1024, False, version=1))
    assert device.writes >= 2  # journal append + background apply
    assert wal.wal_bytes > 1024  # header + payload
    assert device.flushes >= 1


def test_trim_checkpoints_applied_prefix():
    env, device, owner, wal = make()
    for i in range(4):
        run(env, wal.write(f"o{i}", 0, bytes([i]) * 512, False, version=i + 1))
    run(env, wal.sync())
    assert wal.log_depth == 0
    assert wal.trims == 4
    assert wal.checkpoint_seq == 4


def test_ack_durable_when_every_volatile_entry_drops():
    # No RNG => every un-flushed entry at power loss is dropped: the
    # worst case.  Acked writes must still be fully recoverable.
    env, device, owner, wal = make(with_rng=False)
    run(env, wal.write("small", 0, b"s" * 2048, False, version=1))
    big_cfg_data = b"L" * 4096
    run(env, wal.write("big", 0, big_cfg_data, True, version=2))
    wal.power_loss()
    stats = wal.recover()
    assert owner.store.read("small", 0, 2048) == b"s" * 2048
    assert owner.store.read("big", 0, 4096) == big_cfg_data
    assert owner.versions == {"small": 1, "big": 2}
    assert stats.keys_dropped == 0
    assert wal.replays == 1


def test_unflushed_write_is_never_half_applied():
    # Stop the sim mid-transaction (before the record barrier finishes),
    # cut power with all-drop fates: the write must vanish atomically.
    env, device, owner, wal = make(with_rng=False)
    env.process(wal.write("obj", 0, b"x" * 4096, False, version=1))
    env.run(until=1)  # journal device write still in flight
    wal.halt()
    wal.power_loss()
    wal.recover()
    assert "obj" not in owner.store
    assert "obj" not in owner.versions


def test_torn_apply_is_detected_and_healed_by_its_record():
    # tear_p=1.0: every lost entry tears.  A deferred write's in-place
    # apply tears after its record flushed, so replay heals it.
    cfg = DurabilityConfig(persist_p=0.0, tear_p=1.0)
    healed = torn_seen = 0
    for seed in range(8):
        env, device, owner, wal = make(cfg, seed=seed)
        data = b"t" * 8192  # two atomic units: a tear can land one
        run(env, wal.write("obj", 0, data, False, version=1))
        # The background apply's media entry is still volatile here.
        wal.power_loss()
        stats = wal.recover()
        assert owner.store.read("obj", 0, 8192) == data  # acked => durable
        assert owner.store.verify("obj")
        torn_seen += stats.torn_detected
        healed += 1
    assert healed == 8
    assert torn_seen > 0  # the tear path actually fired across seeds


def test_torn_journal_record_checksum_rejected():
    env, device, owner, wal = make()
    run(env, wal.write("obj", 0, b"z" * 512, False, version=1))
    rec = wal.log[0] if wal.log else None
    if rec is None:
        pytest.skip("record already trimmed")
    rec.checksum = TORN_CHECKSUM
    assert not rec.valid


def test_delete_tombstone_survives_power_loss():
    env, device, owner, wal = make(with_rng=False)
    run(env, wal.write("obj", 0, b"d" * 1024, False, version=1))
    run(env, wal.delete("obj", version=-1))
    wal.power_loss()  # the delete's media-side entry is dropped
    wal.recover()
    assert "obj" not in owner.store
    assert "obj" not in owner.versions


def test_whole_write_shrinks_object():
    env, device, owner, wal = make(with_rng=False)
    run(env, wal.write("obj", 0, b"A" * 8192, False, version=1))
    run(env, wal.write("obj", 0, b"B" * 4096, False, version=2, whole=True))
    wal.power_loss()
    wal.recover()
    assert owner.store.object_size("obj") == 4096
    assert owner.store.read("obj", 0, 4096) == b"B" * 4096


def test_recover_twice_is_idempotent():
    env, device, owner, wal = make(with_rng=False)
    run(env, wal.write("obj", 0, b"i" * 4096, False, version=7))
    wal.power_loss()
    wal.recover()
    first = owner.store.read("obj", 0, 4096)
    stats = wal.recover()  # second restart: empty log, compacted media
    assert owner.store.read("obj", 0, 4096) == first
    assert stats.records_replayed == 0
    assert owner.versions["obj"] == 7


def test_process_crash_persists_surviving_cache():
    # recover() without power_loss(): a process restart with power held.
    # Volatile entries persist instead of resolving under fates.
    env, device, owner, wal = make(with_rng=False)
    run(env, wal.write("obj", 0, b"p" * 2048, False, version=1))
    assert device.volatile_depth > 0  # background apply not yet flushed
    wal.recover()
    assert owner.store.read("obj", 0, 2048) == b"p" * 2048
    assert wal.log_depth == 0


def test_journal_key_never_leaks_into_visible_store():
    env, device, owner, wal = make(with_rng=False)
    run(env, wal.write("obj", 0, b"j" * 512, False, version=1))
    wal.power_loss()
    wal.recover()
    assert JOURNAL_KEY not in owner.store
    assert all("~x" not in name for name in owner.store.object_names())


def test_device_flush_drains_and_counts():
    env, device, owner, wal = make()

    class E:
        def __init__(self):
            self.persisted = False

        def persist(self):
            self.persisted = True

    a, b = E(), E()
    device.cache_write(a)
    device.cache_write(b)
    assert device.volatile_depth == 2
    run(env, device.flush())
    assert a.persisted and b.persisted
    assert device.volatile_depth == 0
    assert device.flushes == 1 and device.flushed_entries == 2


def test_scaled_profile_scales_flush_cost():
    slow = _scaled_profile(NVME_SSD, 4.0)
    assert slow.flush_ns == NVME_SSD.flush_ns * 4
    assert slow.rand_write_ns == NVME_SSD.rand_write_ns * 4


def test_wal_write_requires_version_tracking():
    env, device, owner, wal = make(with_rng=False)
    run(env, wal.write("obj", 0, b"v" * 256, False, version=5))
    run(env, wal.sync())
    assert wal.durable_versions["obj"] == 5


def test_torn_writes_disabled_never_tears():
    cfg = DurabilityConfig(persist_p=0.0, tear_p=1.0, torn_writes=False)
    for seed in range(4):
        env, device, owner, wal = make(cfg, seed=seed)
        run(env, wal.write("obj", 0, b"n" * 8192, False, version=1))
        wal.power_loss()
        stats = wal.recover()
        assert stats.torn_detected == 0
        assert owner.store.read("obj", 0, 8192) == b"n" * 8192


def test_storage_error_on_missing_read():
    env, device, owner, wal = make(with_rng=False)
    with pytest.raises(StorageError):
        owner.store.read("nope", 0, 16)


# -- digests taken when replay first reads them -------------------------------


class CountingHashlib:
    """Stands in for ``hashlib`` in :mod:`repro.osd.wal`, counting hashes."""

    def __init__(self):
        self.calls = 0

    def sha256(self, *args):
        self.calls += 1
        return hashlib.sha256(*args)


def test_durable_writes_hash_nothing_until_replay(monkeypatch):
    counter = CountingHashlib()
    monkeypatch.setattr(wal_module, "hashlib", counter)
    env, device, owner, wal = make()
    run(env, wal.write("big", 0, b"L" * kib(128), True, version=1))
    commit = wal.log[-1]
    assert wal.commit_writes == 1
    assert counter.calls == 0  # neither the payload nor the record before the ack
    run(env, wal.write("small", 0, b"s" * kib(4), False, version=2))
    deferred = wal.log[-1]
    assert wal.deferred_writes == 1
    assert counter.calls == 0  # nor the deferred record
    for _ in range(2):
        assert commit.valid and deferred.valid
    assert counter.calls == 3  # each digest once: extent, commit record, deferred record


def test_replay_digests_a_pending_commit_once(monkeypatch):
    # One comparison decides a commit record at replay: the media
    # extent's content digest against the record's payload digest.  The
    # media checksum check and a second read-and-hash of the extent are
    # redundant (an acked record implies its extent was flushed).
    counter = CountingHashlib()
    monkeypatch.setattr(wal_module, "hashlib", counter)
    monkeypatch.setattr(objects_module, "hashlib", counter)
    env, device, owner, wal = make(with_rng=False)
    payload = bytes(range(256)) * 512
    run(env, wal.write("big", 0, payload, True, version=1))
    assert wal.log[-1].kind == "commit"
    wal.power_loss()  # drops the volatile install
    counter.calls = 0
    stats = wal.recover()
    assert (stats.records_replayed, stats.commits_skipped) == (1, 0)
    assert owner.store.read("big", 0, len(payload)) == payload
    assert counter.calls == 3  # extent content, record payload digest, record seal


def test_late_digests_equal_the_eager_formulas():
    env, device, owner, wal = make()
    big, small = bytes(range(256)) * 512, b"s" * kib(4)
    run(env, wal.write("big", 0, big, True, version=1))
    commit = wal.log[-1]
    run(env, wal.write("small", 8, small, False, version=2))
    deferred = wal.log[-1]
    extent_digest = hashlib.sha256(big).hexdigest()
    assert commit.extent_checksum == extent_digest
    assert deferred.extent_checksum == ""
    sealed = [
        (commit, (commit.seq, "commit", "big", 0, len(big), 1, None,
                  commit.extent_key, extent_digest, False)),
        (deferred, (deferred.seq, "deferred", "small", 8, len(small), 2, small,
                    "", "", False)),
    ]
    for rec, fields in sealed:
        assert rec.checksum == hashlib.sha256(repr(fields).encode()).hexdigest()
        assert rec.valid


def test_commit_over_a_rewritten_extent_is_skipped():
    # The staged extent ends up holding other, legitimately written
    # bytes (its stored checksum describes them): only the record's
    # extent digest can reject it.
    env, device, owner, wal = make(with_rng=False)
    old, new = b"o" * kib(64), b"n" * kib(64)
    run(env, wal.write("obj", 0, old, True, version=1))
    run(env, wal.sync())
    run(env, wal.write("obj", 0, new, True, version=2))
    rec = wal.log[-1]
    assert rec.kind == "commit" and rec.extent_key in wal.media
    wal.media.write(rec.extent_key, 0, b"x" * kib(64))
    assert wal.media.verify(rec.extent_key)
    wal.power_loss()  # drops the volatile install
    stats = wal.recover()
    assert stats.commits_skipped == 1
    assert owner.store.read("obj", 0, kib(64)) == old
    assert owner.versions == {"obj": 1}


def test_record_payload_fields_are_read_only():
    rec = WalRecord(1, "commit", "obj", 0, 3, 1, extent_key="obj~x1", staged=b"abc")
    rec.seal()
    for field in ("seq", "kind", "key", "offset", "length", "version", "data",
                  "extent_key", "staged", "extent_checksum", "whole"):
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    assert rec.valid
    rec.checksum = TORN_CHECKSUM
    assert rec.checksum == TORN_CHECKSUM and not rec.valid


def test_only_the_crash_explorer_records_wal_events():
    env, device, owner, wal = make()
    run(env, wal.write("obj", 0, b"e" * kib(4), False, version=1))
    run(env, wal.sync())
    assert wal.events == []
    _env, cluster, _pool, _manager = crashsim._build(0, "replicated")
    assert all(d.wal.config.record_events for d in cluster.daemons.values())
