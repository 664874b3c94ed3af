"""Integration tests: cluster, client I/O paths, EC, failure/recovery, RBD."""

import pytest

from repro.crush import CRUSH_ITEM_NONE
from repro.errors import StorageError
from repro.osd import (
    ClusterSpec,
    RBDImage,
    build_cluster,
    shard_object_name,
)
from repro.sim import Environment
from repro.units import kib, mib, us


def small_cluster(**kw):
    env = Environment()
    spec = ClusterSpec(num_server_hosts=2, osds_per_host=4, **kw)
    return env, build_cluster(env, spec)


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


# --- construction ------------------------------------------------------------


def test_paper_testbed_shape():
    env = Environment()
    cluster = build_cluster(env)  # defaults: 2 hosts x 16 OSDs
    assert len(cluster.daemons) == 32
    assert cluster.osdmap.up_osds() == list(range(32))


def test_pool_creation_bumps_epoch():
    env, cluster = small_cluster()
    e0 = cluster.osdmap.epoch
    cluster.create_replicated_pool("rbd", pg_num=32, size=3)
    assert cluster.osdmap.epoch == e0 + 1


def test_duplicate_client_rejected():
    env, cluster = small_cluster()
    cluster.new_client("c")
    with pytest.raises(StorageError):
        cluster.new_client("c")


# --- replicated I/O -----------------------------------------------------------


@pytest.mark.parametrize("direct", [False, True])
def test_replicated_write_read_roundtrip(direct):
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=3)
    client = cluster.new_client()
    data = bytes(range(256)) * 16  # 4 kB
    run(env, client.write_replicated(pool, "obj1", data, direct=direct))
    got = run(env, client.read_replicated(pool, "obj1", 0, len(data)))
    assert got == data


@pytest.mark.parametrize("direct", [False, True])
def test_replicated_write_lands_on_all_replicas(direct):
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=3)
    client = cluster.new_client()
    run(env, client.write_replicated(pool, "obj1", b"x" * 512, direct=direct))
    holders = [d.osd_id for d in cluster.daemons.values() if "obj1" in d.store]
    assert len(holders) == 3
    assert holders == sorted(client.compute_placement(pool, "obj1"))


def test_direct_write_is_faster_than_primary_fanout():
    """One hop vs two hops for replica copies."""

    def latency(direct):
        env, cluster = small_cluster()
        pool = cluster.create_replicated_pool("rbd", pg_num=32, size=3)
        client = cluster.new_client()
        start = env.now

        def io(env):
            yield from client.write_replicated(pool, "o", b"z" * 4096, direct=direct)
            return env.now

        return run(env, io(env))

    assert latency(direct=True) < latency(direct=False)


def test_replicated_partial_read():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    run(env, client.write_replicated(pool, "obj", b"abcdefgh"))
    assert run(env, client.read_replicated(pool, "obj", 2, 4)) == b"cdef"


def test_wrong_pool_type_rejected():
    env, cluster = small_cluster()
    rp = cluster.create_replicated_pool("r", pg_num=16, size=2)
    ep = cluster.create_erasure_pool("e", pg_num=16, k=2, m=1)
    client = cluster.new_client()
    with pytest.raises(StorageError):
        run(env, client.write_replicated(ep, "o", b"x"))
    with pytest.raises(StorageError):
        run(env, client.write_ec(rp, "o", b"x"))


# --- EC I/O ----------------------------------------------------------------------


@pytest.mark.parametrize("direct", [False, True])
def test_ec_write_read_roundtrip(direct):
    env, cluster = small_cluster()
    pool = cluster.create_erasure_pool("ecpool", pg_num=32, k=4, m=2)
    client = cluster.new_client()
    data = bytes((i * 7) % 256 for i in range(4096))
    run(env, client.write_ec(pool, "eobj", data, direct=direct))
    got = run(env, client.read_ec(pool, "eobj", len(data), direct=direct))
    assert got == data


def test_ec_write_places_all_shards(direct=True):
    env, cluster = small_cluster()
    pool = cluster.create_erasure_pool("ecpool", pg_num=32, k=4, m=2)
    client = cluster.new_client()
    run(env, client.write_ec(pool, "eobj", b"q" * 4096, direct=direct))
    shard_holders = [
        (rank, d.osd_id)
        for d in cluster.daemons.values()
        for rank in range(6)
        if shard_object_name("eobj", rank) in d.store
    ]
    assert len(shard_holders) == 6
    assert sorted(r for r, _ in shard_holders) == list(range(6))


def test_ec_read_survives_shard_loss():
    env, cluster = small_cluster()
    pool = cluster.create_erasure_pool("ecpool", pg_num=32, k=3, m=2)
    client = cluster.new_client()
    data = b"resilient-data" * 100
    run(env, client.write_ec(pool, "eobj", data, direct=True))
    # Kill the OSDs holding shards 0 and 1.
    acting = client.compute_placement(pool, "eobj")
    cluster.fail_osd(acting[0])
    cluster.fail_osd(acting[1])
    got = run(env, client.read_ec(pool, "eobj", len(data), direct=True))
    assert got == data


def test_ec_cross_mode_roundtrip():
    """Shards written via primary must decode via direct reads and vice versa."""
    env, cluster = small_cluster()
    pool = cluster.create_erasure_pool("ecpool", pg_num=32, k=4, m=2)
    client = cluster.new_client()
    data = b"interop" * 300
    run(env, client.write_ec(pool, "o1", data, direct=False))
    assert run(env, client.read_ec(pool, "o1", len(data), direct=True)) == data


def test_ec_primary_ops_keep_shard_ranks_across_a_crush_hole():
    """One host of six OSDs under EC 4+2: failing one OSD leaves a CRUSH
    hole in the acting set.  The primary must still write each shard at
    its own rank (the client used to drop the hole, so every later shard
    slid down one rank and parity was never written), and both read
    paths must decode it."""
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=1, osds_per_host=6))
    pool = cluster.create_erasure_pool("ec", pg_num=8, k=4, m=2)
    client = cluster.new_client()
    cluster.fail_osd(client.compute_placement(pool, "obj")[1])
    acting = client.compute_placement(pool, "obj")
    assert acting[1] == CRUSH_ITEM_NONE
    data = bytes(range(256)) * 16
    run(env, client.write_ec(pool, "obj", data, direct=False))
    held = {
        (rank, d.osd_id)
        for d in cluster.daemons.values()
        for rank in range(6)
        if shard_object_name("obj", rank) in d.store
    }
    assert held == {(rank, osd) for rank, osd in enumerate(acting) if osd != CRUSH_ITEM_NONE}
    assert run(env, client.read_ec(pool, "obj", len(data), direct=True)) == data
    assert run(env, client.read_ec(pool, "obj", len(data), direct=False)) == data


# --- failure handling --------------------------------------------------------------


def test_write_after_failure_avoids_dead_osd():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=3)
    client = cluster.new_client()
    run(env, client.write_replicated(pool, "before", b"x" * 128))
    victim = client.compute_placement(pool, "before")[0]
    cluster.fail_osd(victim)
    # New writes must not target the dead OSD.
    for i in range(20):
        run(env, client.write_replicated(pool, f"after{i}", b"y" * 128))
        assert victim not in client.compute_placement(pool, f"after{i}")


def test_epoch_invalidates_client_cache():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    a = client.compute_placement(pool, "o")
    cluster.fail_osd(a[0])
    b = client.compute_placement(pool, "o")
    assert a[0] not in b


def test_recovery_restores_replica_count():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=3)
    client = cluster.new_client()
    for i in range(10):
        run(env, client.write_replicated(pool, f"obj{i}", bytes([i]) * 256))
    victim = client.compute_placement(pool, "obj0")[0]
    cluster.fail_osd(victim)
    stats = run(env, cluster.monitor.recover_pool(pool, cluster.any_live_daemon()))
    assert stats.objects_examined == 10
    # Every object readable and present on 3 live OSDs.
    for i in range(10):
        holders = [
            d.osd_id
            for d in cluster.daemons.values()
            if f"obj{i}" in d.store and cluster.osdmap.osds[d.osd_id].up
        ]
        assert len(holders) >= 3, f"obj{i} has {len(holders)} live replicas"


def test_ec_recovery_reconstructs_lost_shards():
    env, cluster = small_cluster()
    pool = cluster.create_erasure_pool("ec", pg_num=32, k=3, m=2)
    client = cluster.new_client()
    data = b"shardme" * 64
    for i in range(6):
        run(env, client.write_ec(pool, f"e{i}", data, direct=True))
    victim = client.compute_placement(pool, "e0")[0]
    cluster.fail_osd(victim)
    stats = run(env, cluster.monitor.recover_pool(pool, cluster.any_live_daemon()))
    assert stats.objects_examined == 6
    # All objects fully readable afterwards.
    for i in range(6):
        assert run(env, client.read_ec(pool, f"e{i}", len(data), direct=True)) == data


# --- RBD --------------------------------------------------------------------------------


def test_rbd_roundtrip_spanning_objects():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    img = RBDImage("vm1", mib(8), pool, client, object_size=mib(1))
    payload = bytes(range(256)) * 8  # 2 kB
    # Write across an object boundary.
    run(env, img.write(mib(1) - 1024, payload))
    got = run(env, img.read(mib(1) - 1024, len(payload)))
    assert got == payload


def test_rbd_object_naming():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    img = RBDImage("vm1", mib(8), pool, client, object_size=mib(4))
    assert img.object_name(1) == "rbd_data.vm1.0000000000000001"


def test_rbd_bounds_checking():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    img = RBDImage("vm1", kib(64), pool, client)
    with pytest.raises(StorageError):
        run(env, img.write(kib(64), b"x"))
    with pytest.raises(StorageError):
        run(env, img.read(-1, 10))


def test_rbd_ec_image_block_granularity():
    env, cluster = small_cluster()
    pool = cluster.create_erasure_pool("ec", pg_num=32, k=2, m=1)
    client = cluster.new_client()
    img = RBDImage("vol", kib(64), pool, client, object_size=4096, direct=True)
    block = bytes(range(256)) * 16
    run(env, img.write(8192, block))
    assert run(env, img.read(8192, 4096)) == block
    with pytest.raises(StorageError):
        run(env, img.write(100, b"partial"))


def test_rbd_ec_multi_object_direct_write():
    """A direct write over three EC objects encodes each object in its
    own leg; one that starts inside an object raises before any leg."""
    env, cluster = small_cluster()
    pool = cluster.create_erasure_pool("ec", pg_num=32, k=2, m=1)
    client = cluster.new_client()
    img = RBDImage("vol", kib(64), pool, client, object_size=4096, direct=True)
    blocks = [bytes([i]) * 4096 for i in (1, 2, 3)]
    run(env, img.write(8192, b"".join(blocks)))
    for i, block in enumerate(blocks):
        assert run(env, img.read(8192 + 4096 * i, 4096)) == block
    assert run(env, img.read(8192, 3 * 4096)) == b"".join(blocks)
    with pytest.raises(StorageError):
        run(env, img.write(100, bytes(8192)))


def test_rbd_validation():
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    with pytest.raises(StorageError):
        RBDImage("bad", 0, pool, client)
    with pytest.raises(StorageError):
        RBDImage("bad", 1024, pool, client, object_size=100)


# --- heartbeats and op timeouts -----------------------------------------------------


def test_heartbeats_detect_silent_osd_death():
    """An OSD that stops responding (without operator action) is marked
    down by the heartbeat loop within interval+grace."""
    env, cluster = small_cluster()
    cluster.monitor.start_heartbeats(interval_ns=us(500), grace_ns=us(300))
    victim = 3
    cluster.daemons[victim].stop()  # silent crash: nobody marks it down
    assert cluster.osdmap.osds[victim].up
    env.run(until=us(2000))
    assert not cluster.osdmap.osds[victim].up
    assert victim in cluster.monitor.failures_detected
    cluster.monitor.stop_heartbeats()
    # Healthy OSDs stayed up.
    assert len(cluster.osdmap.up_osds()) == 7


def test_heartbeats_require_messenger():
    from repro.osd import Monitor

    env = Environment()
    mon = Monitor(env, None, {})
    with pytest.raises(StorageError):
        mon.start_heartbeats(1000, 1000)


def test_osd_dispatch_table_serves_every_kind_and_rejects_unknown():
    """Every op kind names a handler method; an unknown kind still gets
    the "unknown op kind" error reply."""
    from repro.osd.ops import OpKind, OsdOp
    from repro.osd.osd import OsdDaemon

    env, cluster = small_cluster()
    daemon = cluster.daemons[0]
    assert set(OsdDaemon._HANDLERS) == set(OpKind)
    for name in OsdDaemon._HANDLERS.values():
        assert callable(getattr(daemon, name))
    client = cluster.new_client()

    def probe(env):
        op = OsdOp(OpKind.PING, 0, "probe")
        op.kind = "bogus"
        return (yield from client.call("osd.0", op, timeout_ns=us(500)))

    reply = run(env, probe(env))
    assert not reply.ok and reply.error == "unknown op kind bogus"


def test_call_to_dead_osd_fails_fast_with_transport_error():
    """A crashed OSD refuses connections: the caller gets a TRANSPORT
    reply well before its timeout instead of hanging out the full wait."""
    from repro.osd.ops import OpKind, OsdOp
    from repro.status import BlkStatus

    env, cluster = small_cluster()
    client = cluster.new_client()
    victim = 0
    cluster.daemons[victim].stop()  # dead but not marked down

    def probe(env):
        op = OsdOp(OpKind.PING, 0, "ping")
        reply = yield from client.call(f"osd.{victim}", op, timeout_ns=us(200))
        return reply, env.now

    p = env.process(probe(env))
    env.run()
    reply, replied_at = p.value
    assert not reply.ok and reply.status is BlkStatus.TRANSPORT
    assert replied_at < us(200)  # refused, not timed out


def test_call_timeout_returns_failed_reply():
    """A message lost on a down link leaves the caller waiting; the call
    deadline converts the silence into a failed TIMEOUT reply."""
    from repro.osd.ops import OpKind, OsdOp
    from repro.status import BlkStatus

    env, cluster = small_cluster()
    client = cluster.new_client()
    target_host = cluster.fabric.host_of("osd.0")
    cluster.network.host(target_host).downlink.set_up(False)  # drop the op

    def probe(env):
        op = OsdOp(OpKind.PING, 0, "ping")
        reply = yield from client.call("osd.0", op, timeout_ns=us(200))
        return reply

    p = env.process(probe(env))
    env.run()
    assert not p.value.ok and "timeout" in p.value.error
    assert p.value.status is BlkStatus.TIMEOUT
    assert cluster.fabric.link_drops == 1


def test_write_recovers_from_midflight_osd_death():
    """Kill the target OSD before the op lands; the heartbeat loop marks
    it down and a client retry against the new epoch succeeds."""
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    cluster.monitor.start_heartbeats(interval_ns=us(300), grace_ns=us(200))
    victim = client.compute_placement(pool, "obj")[0]
    cluster.daemons[victim].stop()  # silent death

    def resilient_write(env):
        from repro.osd.ops import OpKind, OsdOp

        for _attempt in range(5):
            acting = [o for o in client.compute_placement(pool, "obj") if o >= 0]
            op = OsdOp(OpKind.WRITE_DIRECT, pool.pool_id, "obj", 0, 128,
                       data=b"z" * 128, epoch=cluster.osdmap.epoch)
            reply = yield from client.call(f"osd.{acting[0]}", op, timeout_ns=us(400))
            if reply.ok:
                return True
            yield env.timeout(us(300))  # let the heartbeat catch up
        return False

    p = env.process(resilient_write(env))
    env.run(until=us(20000))
    assert p.value is True
    assert not cluster.osdmap.osds[victim].up
