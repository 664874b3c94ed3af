"""Fault-tolerance datapath: chaos injection, retry/failover, status plumbing."""

import pytest

from repro.errnos import EIO, ENODATA, ENOLINK, ETIMEDOUT
from repro.errors import OsdOpError, StorageError
from repro.osd import ClusterSpec, FaultInjector, OpPolicy, OsdConfig, build_cluster
from repro.osd.ops import OpKind, OsdOp
from repro.sim import Environment, RngRegistry
from repro.status import BlkStatus, worst_status
from repro.units import ms, us


def small_cluster(hosts=2, **kw):
    env = Environment()
    spec = ClusterSpec(num_server_hosts=hosts, osds_per_host=4, **kw)
    return env, build_cluster(env, spec)


def run(env, gen, until=None):
    p = env.process(gen)
    env.run(until=until)
    if not p.ok:
        raise p.value
    return p.value


# --- status model -------------------------------------------------------------


def test_blk_status_errno_mapping():
    assert BlkStatus.OK.errno == 0
    assert BlkStatus.IOERR.errno == EIO
    assert BlkStatus.TIMEOUT.errno == ETIMEDOUT
    assert BlkStatus.TRANSPORT.errno == ENOLINK
    assert BlkStatus.MEDIUM.errno == ENODATA
    assert not BlkStatus.OK and BlkStatus.IOERR  # truthy exactly on failure


def test_worst_status_combine():
    assert worst_status([BlkStatus.OK, BlkStatus.MEDIUM, BlkStatus.IOERR]) is BlkStatus.IOERR
    assert BlkStatus.TIMEOUT.combine(BlkStatus.TRANSPORT) is BlkStatus.TRANSPORT
    assert worst_status([]) is BlkStatus.OK


# --- retry policy -------------------------------------------------------------


def test_backoff_respects_bounds():
    """A retry storm never exceeds the cap (+jitter) nor collapses to 0."""
    policy = OpPolicy(
        timeout_ns=ms(1), max_attempts=10, backoff_base_ns=us(100),
        backoff_multiplier=2.0, backoff_max_ns=us(800), jitter=0.1,
    )
    rng = RngRegistry(7).stream("backoff")
    ceiling = int(us(800) * 1.1)
    for attempt in range(1, 10):
        raw = min(us(100) * 2.0 ** (attempt - 1), us(800))
        delay = policy.backoff_ns(attempt, rng)
        assert int(raw * 0.9) <= delay <= ceiling, f"attempt {attempt}: {delay}"
    # Deterministic: same seed, same schedule.
    a = [OpPolicy().backoff_ns(i, RngRegistry(3).stream("b")) for i in range(1, 6)]
    b = [OpPolicy().backoff_ns(i, RngRegistry(3).stream("b")) for i in range(1, 6)]
    assert a == b


def test_policy_validation():
    with pytest.raises(StorageError):
        OpPolicy(max_attempts=0)
    with pytest.raises(StorageError):
        OpPolicy(jitter=1.5)
    with pytest.raises(StorageError):
        OpPolicy(backoff_multiplier=0.5)


def test_retry_exhaustion_raises_with_attempt_count():
    """All replicas unreachable: the op fails after exactly max_attempts,
    carrying the last failure's status."""
    env, cluster = small_cluster(
        op_policy=OpPolicy(timeout_ns=us(300), max_attempts=3, backoff_base_ns=us(50))
    )
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    for host in cluster.server_hosts:  # silence the whole backend
        cluster.network.host(host).downlink.set_up(False)
    with pytest.raises(OsdOpError) as exc:
        run(env, client.write_replicated(pool, "obj", b"x" * 128))
    assert exc.value.attempts == 3
    assert exc.value.status is BlkStatus.TIMEOUT
    assert client.retries == 2 and client.timeouts == 3


# --- late replies and crash-mid-op --------------------------------------------


def test_late_reply_after_timeout_is_dropped_not_misdelivered():
    """A reply landing after its call timed out must be discarded; the
    next op's reply correlates to the next op, never the stale one."""
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    injector = FaultInjector(cluster)
    run(env, client.write_replicated(pool, "warm", b"k" * 256))
    slow = client.compute_placement(pool, "warm")[0]
    fast = next(o for o in cluster.osdmap.up_osds() if o not in
                client.compute_placement(pool, "warm"))
    injector.slow_device(slow, 500.0)

    def scenario(env):
        wr = OsdOp(OpKind.WRITE_DIRECT, pool.pool_id, "late", 0, 4096,
                   data=b"w" * 4096, epoch=cluster.osdmap.epoch)
        first = yield from client.call(f"osd.{slow}", wr, timeout_ns=us(100))
        ping = OsdOp(OpKind.PING, 0, "ping")
        second = yield from client.call(f"osd.{fast}", ping)
        return first, second

    first, second = run(env, scenario(env))
    assert not first.ok and first.status is BlkStatus.TIMEOUT
    assert second.ok and second.op_id != first.op_id  # own reply, not the stale ack
    assert not client._pending  # late write ack was dropped, nothing leaks


def test_crash_mid_write_recovers_with_no_stranded_processes():
    """Crash one replica while a 3-way write is in flight: retries +
    heartbeat-driven remap finish the write; no waiter is left hanging."""
    env, cluster = small_cluster(
        hosts=3,
        op_policy=OpPolicy(timeout_ns=us(800), max_attempts=6),
    )
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=3)
    client = cluster.new_client()
    cluster.monitor.start_heartbeats(interval_ns=us(300), grace_ns=us(200))
    victim = client.compute_placement(pool, "obj")[0]

    def crash_later(env):
        yield env.timeout(us(10))  # op is mid-flight by now
        cluster.crash_osd(victim)

    env.process(crash_later(env))
    p = env.process(client.write_replicated(pool, "obj", b"d" * 4096, direct=True))
    env.run(until=ms(50))
    assert p.ok, getattr(p, "value", None)
    assert client.retries > 0
    assert not cluster.osdmap.osds[victim].up  # heartbeats saw the crash
    # Nobody stranded: no pending calls, no live handlers on the corpse.
    assert not client._pending
    assert not cluster.daemons[victim]._pending
    assert not cluster.daemons[victim]._handlers
    holders = [d.osd_id for d in cluster.daemons.values()
               if "obj" in d.store and cluster.osdmap.osds[d.osd_id].up]
    assert len(holders) >= 2
    cluster.monitor.stop_heartbeats()


def test_write_replay_absorbed_by_reply_cache():
    """Re-sending an already-applied write (same op id) must ack from the
    reply cache without re-applying — idempotent replay."""
    env, cluster = small_cluster()
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    target = client.compute_placement(pool, "obj")[0]
    op = OsdOp(OpKind.WRITE_DIRECT, pool.pool_id, "obj", 0, 512,
               data=b"v" * 512, epoch=cluster.osdmap.epoch)

    def replay(env):
        r1 = yield from client.call(f"osd.{target}", op)
        r2 = yield from client.call(f"osd.{target}", op)  # client replay
        return r1, r2

    r1, r2 = run(env, replay(env))
    assert r1.ok and r2.ok
    assert cluster.daemons[target].replays_absorbed == 1


def test_degraded_ec_read_returns_identical_bytes():
    """Losing one shard holder mid-run degrades the read to a
    decode-from-survivors that is byte-identical to the original."""
    env, cluster = small_cluster(
        op_policy=OpPolicy(timeout_ns=ms(1), max_attempts=4)
    )
    pool = cluster.create_erasure_pool("ec", pg_num=32, k=3, m=2)
    client = cluster.new_client()
    data = bytes((i * 13) % 256 for i in range(6144))
    run(env, client.write_ec(pool, "eobj", data, direct=True))
    victim = client.compute_placement(pool, "eobj")[1]
    cluster.crash_osd(victim)  # silent: acting set still lists it
    got = run(env, client.read_ec(pool, "eobj", len(data), direct=True))
    assert got == data
    assert client.degraded_reads > 0


def test_read_fails_over_to_secondary_on_primary_crash():
    env, cluster = small_cluster(
        op_policy=OpPolicy(timeout_ns=ms(1), max_attempts=4)
    )
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=3)
    client = cluster.new_client()
    data = b"failover-me" * 40
    run(env, client.write_replicated(pool, "obj", data))
    primary = client.compute_placement(pool, "obj")[0]
    cluster.crash_osd(primary)  # silent: client still tries it first
    assert run(env, client.read_replicated(pool, "obj", 0, len(data))) == data
    assert client.failovers > 0


# --- chaos injector -----------------------------------------------------------


def test_message_faults_deterministic_and_counted():
    env, cluster = small_cluster(seed=11)
    injector = FaultInjector(cluster)
    faults = injector.set_message_faults(drop_p=0.3, duplicate_p=0.2, corrupt_p=0.1)
    fates = [faults.classify() for _ in range(200)]
    assert faults.dropped + faults.duplicated + faults.corrupted == sum(
        1 for f in fates if f is not None
    )
    assert faults.dropped > 0 and faults.duplicated > 0 and faults.corrupted > 0
    env2, cluster2 = small_cluster(seed=11)
    faults2 = FaultInjector(cluster2).set_message_faults(0.3, 0.2, 0.1)
    assert fates == [faults2.classify() for _ in range(200)]
    injector.clear_message_faults()
    assert cluster.fabric.faults is None
    with pytest.raises(StorageError):
        injector.set_message_faults(drop_p=1.5)


def test_message_fault_probabilities_must_sum_to_at_most_one():
    """One draw picks the fate, so 0.6 + 0.6 would silently turn 40% of
    messages into duplicates and never corrupt or deliver one clean."""
    _, cluster = small_cluster(seed=11)
    injector = FaultInjector(cluster)
    with pytest.raises(StorageError, match="must be <= 1"):
        injector.set_message_faults(drop_p=0.6, duplicate_p=0.6)
    assert cluster.fabric.faults is None
    faults = injector.set_message_faults(drop_p=0.1, duplicate_p=0.2, corrupt_p=0.7)
    assert (faults.drop_p, faults.duplicate_p, faults.corrupt_p) == (0.1, 0.2, 0.7)


def test_lossy_fabric_io_still_completes():
    """With drops, dups, and corruption on the wire, retries and replays
    deliver every byte correctly."""
    env, cluster = small_cluster(
        seed=5,
        op_policy=OpPolicy(timeout_ns=ms(1), max_attempts=8),
        osd_config=OsdConfig(subop_timeout_ns=us(500)),
    )
    pool = cluster.create_replicated_pool("rbd", pg_num=32, size=2)
    client = cluster.new_client()
    FaultInjector(cluster).set_message_faults(drop_p=0.08, duplicate_p=0.05, corrupt_p=0.05)
    blobs = {f"o{i}": bytes((i + j) % 256 for j in range(2048)) for i in range(12)}
    for name, blob in blobs.items():
        run(env, client.write_replicated(pool, name, blob, direct=True))
    for name, blob in blobs.items():
        assert run(env, client.read_replicated(pool, name, 0, len(blob))) == blob
    assert client.retries > 0  # the fault path actually fired


def test_fault_timeline_and_link_flaps():
    env, cluster = small_cluster()
    injector = FaultInjector(cluster)
    applied = []
    injector.schedule([
        (us(500), lambda: applied.append(("flap", env.now))),
        (us(100), lambda: applied.append(("slow", env.now))),
    ])
    env.run(until=us(1000))
    assert applied == [("slow", us(100)), ("flap", us(500))]  # sorted by time
    host = cluster.server_hosts[0]
    injector.flap_link(host, down_ns=us(200), up_ns=us(200), count=2)
    env.run(until=us(1100))
    assert not cluster.network.host(host).uplink.up
    env.run()
    assert cluster.network.host(host).uplink.up
    assert cluster.network.host(host).uplink.flaps == 2
    with pytest.raises(StorageError):
        injector.flap_link(host, down_ns=0, up_ns=1)


def test_errno_reaches_uring_cqe():
    """A backend failure surfaces in the CQE ``res`` as a negative errno,
    not a catch-all -5."""
    from repro.blk.bio import Bio, IoOp, Request

    req = Request(bios=[Bio(IoOp.READ, sector=0, size=4096)])
    req.fail(BlkStatus.TIMEOUT, error="op timed out")
    assert req.status.errno == ETIMEDOUT
    req2 = Request(bios=[Bio(IoOp.WRITE, sector=0, size=4096)])
    exc = OsdOpError("gone", status=BlkStatus.TRANSPORT, attempts=3)
    req2.fail_from_exc(exc)
    assert req2.status is BlkStatus.TRANSPORT and req2.status.errno == ENOLINK
