"""Power-loss fault class: status plumbing, cluster power cycling, and
log-based delta recovery (vs. unconditional full backfill)."""

import pytest

from repro import errnos
from repro.errors import StorageError
from repro.osd import (
    ClusterSpec,
    DurabilityConfig,
    FaultInjector,
    OpPolicy,
    RecoveryConfig,
    Scrubber,
    build_cluster,
)
from repro.sim import Environment
from repro.sim.metrics import MetricsRegistry
from repro.status import BlkStatus, worst_status
from repro.units import ms


def make(durable=True, seed=0, recovery=False):
    env = Environment()
    spec = ClusterSpec(
        num_server_hosts=2,
        osds_per_host=3,
        op_policy=OpPolicy(timeout_ns=ms(2), max_attempts=8),
        durability=DurabilityConfig() if durable else None,
        seed=seed,
    )
    env.metrics = MetricsRegistry()
    cluster = build_cluster(env, spec)
    pool = cluster.create_replicated_pool("p", pg_num=16, size=3)
    manager = cluster.enable_recovery(RecoveryConfig()) if recovery else None
    client = cluster.new_client()
    return env, cluster, pool, client, manager


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


# -- kernel-style status mapping ----------------------------------------------


def test_again_status_maps_to_eagain():
    assert BlkStatus.AGAIN.value == "again"
    assert BlkStatus.AGAIN.errno == errnos.EAGAIN
    assert errnos.EAGAIN == 11
    assert errnos.ERRNO_NAMES[errnos.EAGAIN] == "EAGAIN"


def test_again_severity_is_retryable_tier():
    # Worse than a medium error, milder than timeout/transport/ioerr.
    assert worst_status([BlkStatus.OK, BlkStatus.AGAIN]) is BlkStatus.AGAIN
    assert worst_status([BlkStatus.AGAIN, BlkStatus.MEDIUM]) is BlkStatus.AGAIN
    assert worst_status([BlkStatus.AGAIN, BlkStatus.TIMEOUT]) is BlkStatus.TIMEOUT
    assert worst_status([BlkStatus.AGAIN, BlkStatus.TRANSPORT]) is BlkStatus.TRANSPORT
    assert worst_status([BlkStatus.AGAIN, BlkStatus.IOERR]) is BlkStatus.IOERR


# -- cluster power cycling ----------------------------------------------------


def test_power_cycle_preserves_acked_writes():
    env, cluster, pool, client, _ = make()
    payload = {f"o{i}": bytes([i + 1]) * 4096 for i in range(8)}
    for name, data in payload.items():
        run(env, client.write_replicated(pool, name, data, direct=True))
    victim = client.compute_placement(pool, "o0")[0]
    cluster.power_loss_osd(victim)
    stats = cluster.power_on_osd(victim)
    assert cluster.daemons[victim].wal.replays == 1
    assert stats.objects_recovered > 0
    for name, data in payload.items():
        got = run(env, client.read_replicated(pool, name, 0, len(data)))
        assert got == data
    # Every surviving store key passes its lazy-checksum verify.
    for daemon in cluster.daemons.values():
        for key in daemon.store.object_names():
            assert daemon.store.verify(key)


def test_power_cycle_end_to_end_with_recovery_and_scrub():
    env, cluster, pool, client, manager = make(recovery=True)
    payload = {f"o{i}": bytes([i + 7]) * 4096 for i in range(10)}

    def main():
        for name, data in payload.items():
            yield from client.write_replicated(pool, name, data, direct=True)
        victim = client.compute_placement(pool, "o0")[0]
        cluster.power_loss_osd(victim)
        cluster.osdmap.mark_down(victim)
        # Writes land on the survivors while the victim is dark.
        yield from client.write_replicated(pool, "during", b"D" * 4096, direct=True)
        yield from manager.wait_converged()
        cluster.power_on_osd(victim)
        yield from manager.wait_converged()
        for name, data in list(payload.items()) + [("during", b"D" * 4096)]:
            got = yield from client.read_replicated(pool, name, 0, len(data))
            assert got == data
        report = yield from Scrubber(env, cluster.monitor).scrub(pool, deep=True)
        assert report.clean

    run(env, main())


def test_delta_recovery_ships_only_missed_ops():
    # Sharp version of the bench assertion: nothing written during the
    # outage => the WAL-replaying OSD needs zero pushed bytes, while the
    # wipe path re-backfills everything it ever held.
    env, cluster, pool, client, manager = make(recovery=True)
    metrics = env.metrics
    for i in range(8):
        run(env, client.write_replicated(pool, f"o{i}", bytes([i]) * 4096, direct=True))
    victim = client.compute_placement(pool, "o0")[0]

    def cycle():
        cluster.power_loss_osd(victim)
        cluster.osdmap.mark_down(victim)
        yield from manager.wait_converged()
        before = metrics.counter("recovery.bytes_pushed").value
        cluster.power_on_osd(victim)
        yield from manager.wait_converged()
        return metrics.counter("recovery.bytes_pushed").value - before

    delta_bytes = run(env, cycle())
    assert delta_bytes == 0, f"idle outage still pushed {delta_bytes} bytes"

    # Same schedule through the wipe path: bytes must move.
    env2, cluster2, pool2, client2, manager2 = make(durable=False, recovery=True)
    for i in range(8):
        run(env2, client2.write_replicated(pool2, f"o{i}", bytes([i]) * 4096, direct=True))
    victim2 = client2.compute_placement(pool2, "o0")[0]

    def wipe_cycle():
        cluster2.fail_osd(victim2)
        yield from manager2.wait_converged()
        before = env2.metrics.counter("recovery.bytes_pushed").value
        cluster2.monitor.revive_osd(victim2)
        yield from manager2.wait_converged()
        return env2.metrics.counter("recovery.bytes_pushed").value - before

    full_bytes = run(env2, wipe_cycle())
    assert full_bytes > 0


def test_client_counts_power_loss_retries():
    env, cluster, pool, client, _ = make()
    run(env, client.write_replicated(pool, "obj", b"x" * 4096, direct=True))
    victim = client.compute_placement(pool, "obj")[0]

    def main():
        cluster.power_loss_osd(victim)
        # The op bounces off the dark primary with AGAIN, then retries.
        yield from client.write_replicated(pool, "obj", b"y" * 4096, direct=True)

    def revive():
        yield env.timeout(ms(4))
        cluster.power_on_osd(victim)

    p1 = env.process(main())
    env.process(revive())
    env.run()
    if not p1.ok:
        raise p1.value
    assert client.power_loss_retries > 0


# -- injector and monitor integration -----------------------------------------


def test_injector_power_loss_and_restore():
    env, cluster, pool, client, _ = make()
    run(env, client.write_replicated(pool, "obj", b"z" * 4096, direct=True))
    injector = FaultInjector(cluster)
    victim = client.compute_placement(pool, "obj")[0]
    injector.power_loss(victim)
    assert victim in injector.powered_off
    assert injector.active_faults == 1
    stats = injector.restore_power(victim)
    assert stats.objects_recovered >= 1
    assert injector.powered_off == []
    assert injector.active_faults == 0


def test_restore_power_without_loss_raises():
    env, cluster, pool, client, _ = make()
    injector = FaultInjector(cluster)
    with pytest.raises(StorageError):
        injector.restore_power(0)


def test_power_loss_requires_durability():
    env, cluster, pool, client, _ = make(durable=False)
    with pytest.raises(StorageError):
        cluster.power_loss_osd(0)


def test_monitor_revive_uses_wal_replay_for_durable_osds():
    env, cluster, pool, client, _ = make()
    run(env, client.write_replicated(pool, "obj", b"m" * 4096, direct=True))
    victim = client.compute_placement(pool, "obj")[0]
    assert "obj" in cluster.daemons[victim].store
    cluster.power_loss_osd(victim)
    cluster.osdmap.mark_down(victim)
    cluster.monitor.revive_osd(victim)
    # Durable branch: the store was rebuilt from the WAL, not wiped.
    assert "obj" in cluster.daemons[victim].store
    assert cluster.daemons[victim].wal.replays == 1
