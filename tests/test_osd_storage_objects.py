"""Tests for the media model and the object store."""

import hashlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import StorageError
from repro.osd import HDD, NVME_SSD, ObjectStore, StorageDevice
from repro.sim import Environment, RngRegistry
from repro.units import kib, us


def run_io(device, ios):
    """ios: list of (kind, obj, offset, length[, seq]); returns per-op times."""
    env = device.env
    times = []

    def proc(env):
        for io in ios:
            start = env.now
            if io[0] == "r":
                yield from device.read(io[1], io[2], io[3])
            else:
                yield from device.write(io[1], io[2], io[3], io[4])
            times.append(env.now - start)

    env.process(proc(env))
    env.run()
    return times


def make_device(profile=NVME_SSD):
    env = Environment()
    return StorageDevice(env, profile, name="d0")


# --- device model ------------------------------------------------------------


def test_random_read_latency_matches_profile():
    dev = make_device()
    (t,) = run_io(dev, [("r", "o", 0, 4096)])
    # rand read 22us + ~1.4us transfer
    assert us(20) < t < us(28)


def test_sequential_reads_hit_readahead():
    dev = make_device()
    ios = [("r", "o", i * 4096, 4096) for i in range(8)]
    times = run_io(dev, ios)
    assert times[0] > us(20)  # first miss
    assert all(t < us(8) for t in times[1:]), times


def test_readahead_window_refill():
    dev = make_device()
    dev.readahead_window = 16 * 4096
    ios = [("r", "o", i * 4096, 4096) for i in range(40)]
    times = run_io(dev, ios)
    refills = sum(1 for t in times[1:] if t > us(10))
    assert 1 <= refills <= 3  # one media fetch per window


def test_non_contiguous_read_breaks_stream():
    dev = make_device()
    times = run_io(dev, [("r", "o", 0, 4096), ("r", "o", kib(512), 4096)])
    assert times[1] > us(20)


def test_write_latency_seq_vs_rand():
    dev = make_device()
    t_seq, t_rand = run_io(
        dev, [("w", "o", 0, 4096, True), ("w", "o", kib(64), 4096, False)]
    )
    assert t_seq < t_rand


def test_hdd_random_read_is_milliseconds():
    dev = make_device(HDD)
    (t,) = run_io(dev, [("r", "o", 0, 4096)])
    assert t > 3_000_000  # > 3 ms


def test_device_jitter_deterministic_by_seed():
    def total(seed):
        env = Environment()
        dev = StorageDevice(env, NVME_SSD, rng=RngRegistry(seed).stream("d"), name="d")
        return sum(run_io(dev, [("r", "o", kib(64) * i, 4096) for i in range(5)]))

    assert total(1) == total(1)
    assert total(1) != total(2)


def test_device_counters():
    dev = make_device()
    run_io(dev, [("r", "o", 0, 4096), ("w", "o", 0, 8192, True)])
    assert dev.reads == 1 and dev.writes == 1
    assert dev.bytes_read == 4096 and dev.bytes_written == 8192


def test_device_invalid_lengths():
    dev = make_device()
    with pytest.raises(StorageError):
        next(dev.read("o", 0, 0))
    with pytest.raises(StorageError):
        next(dev.write("o", 0, -1, True))


def test_device_channel_contention():
    env = Environment()
    dev = StorageDevice(env, NVME_SSD, name="d")
    done = []

    def reader(env, i):
        yield from dev.read(f"obj{i}", 0, 4096)
        done.append(env.now)

    for i in range(16):  # 2x the 8 channels
        env.process(reader(env, i))
    env.run()
    assert max(done) > min(done)  # second wave queued behind the first


def _assert_flush_lock_recovers(env, dev, victim):
    """The interrupted flush died, the lock is free, and a later flush
    completes."""
    env.run()
    assert not victim.ok
    assert dev._flush_lock.count == 0
    later = env.process(dev.flush())
    env.run()
    assert later.ok


def test_device_flush_interrupted_while_queued():
    """Power loss on a flush still queued behind another must not
    release the withdrawn lock claim (that crashed the simulator)."""
    env = Environment()
    dev = StorageDevice(env, NVME_SSD, name="d")
    first = env.process(dev.flush())
    second = env.process(dev.flush())
    env.run(until=us(1))
    second.interrupt()
    _assert_flush_lock_recovers(env, dev, second)
    assert first.ok and dev.flushes == 2


def test_device_flush_interrupted_at_grant_instant():
    """An interrupt after the lock is granted but before the flush
    resumes must still release it."""
    env = Environment()
    dev = StorageDevice(env, NVME_SSD, name="d")
    flush = env.process(dev.flush())  # granted at once, resumes later
    kill = env.event()
    kill.callbacks.append(lambda _ev: flush.interrupt())
    kill.succeed()
    _assert_flush_lock_recovers(env, dev, flush)
    assert dev.flushes == 1


# --- object store ---------------------------------------------------------------


def test_object_store_roundtrip():
    store = ObjectStore()
    store.write("a", 0, b"hello")
    assert store.read("a", 0, 5) == b"hello"


def test_object_store_sparse_holes():
    store = ObjectStore()
    store.write("a", 100, b"xy")
    assert store.read("a", 0, 4) == b"\x00" * 4
    assert store.read("a", 100, 2) == b"xy"
    # Holes hold no bytes: only the written extent counts.
    assert store.used_bytes == 2
    assert store.object_size("a") == 102


def test_object_store_read_past_eof_zero_fills():
    store = ObjectStore()
    store.write("a", 0, b"abc")
    assert store.read("a", 0, 6) == b"abc\x00\x00\x00"


def test_object_store_overwrite():
    store = ObjectStore()
    store.write("a", 0, b"aaaa")
    store.write("a", 1, b"bb")
    assert store.read("a", 0, 4) == b"abba"


def test_object_store_missing_object():
    store = ObjectStore()
    with pytest.raises(StorageError):
        store.read("nope", 0, 1)
    with pytest.raises(StorageError):
        store.delete("nope")


def test_object_store_overwrite_spanning_three_extents():
    store = ObjectStore()
    store.write("a", 0, b"aaaa")
    store.write("a", 6, b"bbbb")
    store.write("a", 12, b"cccc")
    store.write("a", 2, b"XXXXXXXXXXXX")
    assert store.read("a", 0, 18) == b"aaXXXXXXXXXXXXcc\x00\x00"
    assert store.object_size("a") == 16
    assert store.used_bytes == 16
    store.write("a", 0, b"z" * 16)  # a whole overwrite collapses the extents
    assert store.read("a", 0, 16) == b"z" * 16


def test_object_store_write_keeps_no_reference_to_mutable_buffers():
    store = ObjectStore()
    buf = bytearray(b"stable")
    store.write("a", 0, buf)
    store.write("a", 10, memoryview(buf))
    buf[:] = b"CHANGED"
    assert store.read("a", 0, 16) == b"stable\x00\x00\x00\x00stable"


def test_object_store_corrupt_leaves_shared_payloads_intact():
    payload = b"shared-payload"
    a, b = ObjectStore(), ObjectStore()
    a.write("x", 0, payload)
    a.write("y", 0, payload)
    b.write("x", 0, a.image("x"))
    a.corrupt("x", 3, b"ROT")
    assert not a.verify("x")
    assert a.read("x", 0, len(payload)) == b"shaROT-payload"
    assert a.read("y", 0, len(payload)) == payload and a.verify("y")
    assert b.read("x", 0, len(payload)) == payload and b.verify("x")


def test_object_store_accounting():
    store = ObjectStore()
    store.write("a", 0, b"12345")
    store.write("b", 0, b"123")
    assert store.used_bytes == 8
    assert len(store) == 2
    assert store.object_names() == ["a", "b"]
    assert store.object_size("a") == 5
    store.delete("a")
    assert store.used_bytes == 3


def test_object_store_validation():
    store = ObjectStore()
    with pytest.raises(StorageError):
        store.write("a", -1, b"x")
    store.write("a", 0, b"x")
    with pytest.raises(StorageError):
        store.read("a", -1, 1)


def test_object_store_checksums_track_writes():
    store = ObjectStore()
    store.write("a", 0, b"hello")
    assert store.verify("a")
    store.write("a", 5, b" world")
    assert store.verify("a")
    first = store.stored_checksum("a")
    store.write("a", 0, b"H")
    assert store.stored_checksum("a") != first


def test_object_store_corrupt_breaks_verify():
    store = ObjectStore()
    store.write("a", 0, b"clean-data")
    store.corrupt("a", 0, b"DIRT")
    assert not store.verify("a")
    # Re-writing legitimately heals the checksum.
    store.write("a", 0, b"clean-data")
    assert store.verify("a")


def test_object_store_checksum_validation():
    store = ObjectStore()
    with pytest.raises(StorageError):
        store.stored_checksum("missing")
    with pytest.raises(StorageError):
        store.verify("missing")
    with pytest.raises(StorageError):
        store.corrupt("missing", 0, b"x")


def test_object_store_delete_clears_checksum():
    store = ObjectStore()
    store.write("a", 0, b"x")
    store.delete("a")
    with pytest.raises(StorageError):
        store.stored_checksum("a")


# --- extent store vs the dense reference model -----------------------------------


class DenseStore:
    """Reference model: each object is one zero-filled ``bytearray`` up to
    its highest written byte, with an eagerly refreshed checksum."""

    def __init__(self):
        self.objects: dict[str, bytearray] = {}
        self.checksums: dict[str, str] = {}

    def _overlay(self, name, offset, data):
        buf = self.objects.setdefault(name, bytearray())
        buf.extend(bytes(max(0, offset + len(data) - len(buf))))
        buf[offset : offset + len(data)] = data

    def write(self, name, offset, data):
        self._overlay(name, offset, data)
        self.checksums[name] = hashlib.sha256(self.objects[name]).hexdigest()

    def corrupt(self, name, offset, junk):
        self._overlay(name, offset, junk)

    def read(self, name, offset, length):
        chunk = bytes(self.objects[name][offset : offset + length])
        return chunk + bytes(length - len(chunk))

    def verify(self, name):
        return hashlib.sha256(self.objects[name]).hexdigest() == self.checksums[name]


NAMES = st.sampled_from(["a", "b", "c"])
OFFSETS = st.integers(min_value=0, max_value=48)
PAYLOADS = st.binary(max_size=24)
BUFFER_TYPES = st.sampled_from([bytes, bytearray, memoryview])


class ExtentStoreMatchesDenseModel(RuleBasedStateMachine):
    """Random write/read/delete/corrupt/verify/checksum sequences read,
    size and hash the same on the extent store and the dense model.  A
    second store takes the first's extent images, written at offset 0
    over whatever it holds: a longer copy keeps its tail, and later
    changes to the first store must not reach it."""

    def __init__(self):
        super().__init__()
        self.store, self.model = ObjectStore(), DenseStore()
        self.copies, self.copied = ObjectStore(), {}

    @rule(name=NAMES, offset=OFFSETS, data=PAYLOADS, kind=BUFFER_TYPES)
    def write(self, name, offset, data, kind):
        self.store.write(name, offset, kind(bytearray(data)))
        self.model.write(name, offset, data)

    @rule(name=NAMES, offset=OFFSETS, junk=st.binary(min_size=1, max_size=8))
    def corrupt(self, name, offset, junk):
        if name not in self.model.objects:
            with pytest.raises(StorageError):
                self.store.corrupt(name, offset, junk)
            return
        self.store.corrupt(name, offset, junk)
        self.model.corrupt(name, offset, junk)

    @rule(name=NAMES, offset=OFFSETS, length=st.integers(min_value=0, max_value=80))
    def read(self, name, offset, length):
        if name not in self.model.objects:
            with pytest.raises(StorageError):
                self.store.read(name, offset, length)
            return
        assert self.store.read(name, offset, length) == self.model.read(name, offset, length)

    @rule(name=NAMES)
    def delete(self, name):
        if name not in self.model.objects:
            with pytest.raises(StorageError):
                self.store.delete(name)
            return
        self.store.delete(name)
        del self.model.objects[name]
        del self.model.checksums[name]

    @rule(name=NAMES)
    def verify_and_checksum(self, name):
        if name not in self.model.objects:
            with pytest.raises(StorageError):
                self.store.verify(name)
            return
        assert self.store.stored_checksum(name) == self.model.checksums[name]
        assert self.store.verify(name) == self.model.verify(name)

    @rule(name=NAMES)
    def copy(self, name):
        if name in self.model.objects:
            self.copies.write(name, 0, self.store.image(name))
            data = bytes(self.model.objects[name])
            self.copied[name] = data + self.copied.get(name, b"")[len(data):]

    @invariant()
    def same_content(self):
        assert self.store.object_names() == sorted(self.model.objects)
        for name, buf in self.model.objects.items():
            assert self.store.object_size(name) == len(buf)
            assert self.store.read(name, 0, len(buf)) == buf
        for name, data in self.copied.items():
            assert self.copies.read(name, 0, len(data) + 4) == data + bytes(4)
            assert self.copies.content_digest(name) == hashlib.sha256(data).hexdigest()


ExtentStoreMatchesDenseModel.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
test_extent_store_matches_dense_model = ExtentStoreMatchesDenseModel.TestCase
