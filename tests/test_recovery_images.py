"""Recovery moves extent images: PULL and PUSH keep the source's layout.

A PULL reply carries the store key's extent image (its ``bytes`` when it
was written whole, else an :class:`~repro.osd.objects.ExtentImage` whose
runs share the source's payloads) and a PUSH installs it as it stands.
These tests compare every recovered copy with its source, layout by
layout: same size, content digest and stored checksum, the very same
payload objects, and no write to one copy reaching another.  A 4 MiB
object that holds one 4 KiB extent is recovered without allocating the
dense 4 MiB it reads as, and a durable target journals the image
flattened, so a restart replays the same content.
"""

import tracemalloc

import pytest

from repro.bench.recovery import write_object as write
from repro.osd import (
    ClusterSpec,
    DurabilityConfig,
    ExtentImage,
    OpKind,
    OpPolicy,
    OsdConfig,
    OsdOp,
    RecoveryConfig,
    build_cluster,
)
from repro.sim import Environment
from repro.units import kib, mib, ms

KEY = "obj"
VERSION = 10
BLOCK = bytes(range(256)) * 16  # 4 KiB


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


def runs(image):
    """``(starts, payloads)`` of an image: ``bytes`` is one run at 0."""
    if isinstance(image, ExtentImage):
        return image.starts, image.payloads
    return (0,), (image,)


def facts(store, key=KEY):
    return store.object_size(key), store.content_digest(key), store.stored_checksum(key)


def assert_copy_of(store, source_facts, source_image, key=KEY):
    """``store``'s copy of ``key`` reads, hashes and checksums like the
    source and holds the source's payload objects, run for run."""
    assert facts(store, key) == source_facts
    starts, payloads = runs(store.image(key))
    src_starts, src_payloads = runs(source_image)
    assert starts == src_starts and len(payloads) == len(src_payloads)
    assert all(got is want for got, want in zip(payloads, src_payloads))


# --- replicated layouts, PULL then PUSH by hand ---------------------------------


def whole(store):
    store.write(KEY, 0, BLOCK * 2)


def holes(store):
    # Holes before and between the extents, and a trailing hole: the
    # empty write grows the logical size past the last extent.
    store.write(KEY, kib(4), BLOCK)
    store.write(KEY, kib(12), BLOCK[:1000])
    store.write(KEY, kib(20), b"")


def split(store):
    # Overwrites split the first extent into slices of its payload.
    store.write(KEY, 0, BLOCK * 4)
    store.write(KEY, 2048, b"x" * 1024)
    store.write(KEY, 9000, b"y" * 3000)


#: layout -> (its writer, runs its image holds, its logical size)
LAYOUTS = {
    "whole": (whole, 1, kib(8)),
    "holes-and-trailing-hole": (holes, 2, kib(20)),
    "split-by-overwrites": (split, 5, kib(16)),
}


def build_replicated():
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=4))
    pool = cluster.create_replicated_pool("pool", pg_num=8, size=3)
    return env, cluster, pool


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_push_installs_the_pulled_layout_by_reference(layout):
    writer, nruns, size = LAYOUTS[layout]
    env, cluster, pool = build_replicated()
    source, targets, helper = cluster.daemons[0], (1, 2), cluster.daemons[7]
    writer(source.store)
    source.versions[KEY] = VERSION
    pulled_from = source.store.image(KEY)
    assert len(runs(pulled_from)[0]) == nruns
    assert isinstance(pulled_from, bytes) == (layout == "whole")
    source_facts = facts(source.store)
    assert source_facts[0] == size
    flat = bytes(pulled_from)

    def op(kind, target, data=None, version=0):
        msg = OsdOp(kind, pool.pool_id, KEY, 0, size, data=data, version=version,
                    epoch=cluster.osdmap.epoch)
        return (yield from helper.call(f"osd.{target}", msg))

    def main():
        reply = yield from op(OpKind.PULL, 0)
        assert reply.ok and reply.version == VERSION
        image = reply.data
        assert len(image) == size and bytes(image) == source.store.read(KEY, 0, size)
        assert all(a is b for a, b in zip(runs(image)[1], runs(pulled_from)[1]))
        # A write to the source after the PULL does not reach the image.
        source.store.write(KEY, 100, b"after the pull")
        for target in targets:
            reply = yield from op(OpKind.PUSH, target, data=image, version=VERSION)
            assert reply.ok and not reply.stale
            assert cluster.daemons[target].versions[KEY] == VERSION
        # A plain-bytes PUSH still installs, as one whole payload.
        reply = yield from op(OpKind.PUSH, 3, data=flat, version=VERSION)
        assert reply.ok and not reply.stale

    run(env, main())
    for target in targets:
        assert_copy_of(cluster.daemons[target].store, source_facts, pulled_from)
    assert_copy_of(cluster.daemons[3].store, source_facts, flat)
    # A write to one target after the PUSH changes no other copy.
    source_now = facts(source.store)
    assert source_now != source_facts
    cluster.daemons[1].store.write(KEY, 0, b"one target only")
    assert facts(cluster.daemons[1].store) != source_facts
    assert_copy_of(cluster.daemons[2].store, source_facts, pulled_from)
    assert facts(cluster.daemons[3].store) == source_facts
    assert facts(source.store) == source_now


def test_pull_ships_the_size_it_charged_when_the_object_grows_meanwhile():
    """A write that extends the object while the PULL's device read runs
    is not shipped: the reply holds exactly the bytes the read charged."""
    env, cluster, pool = build_replicated()
    source = cluster.daemons[0]
    holes(source.store)
    before = source.store.read(KEY, 0, kib(20))
    pull = OsdOp(OpKind.PULL, pool.pool_id, KEY, 0, kib(20))
    served = env.process(source._do_pull(pull))

    def grow():
        yield env.timeout(1)
        source.store.write(KEY, kib(20), b"tail")

    env.process(grow())
    env.run()
    assert source.store.object_size(KEY) == kib(20) + 4
    assert served.value.data == before


# --- EC: a rebuilt shard, then a copy of it ---------------------------------------

CHAOS = dict(op_policy=OpPolicy(timeout_ns=ms(20), max_attempts=12),
             osd_config=OsdConfig(subop_timeout_ns=ms(5)))


def test_ec_rebuilt_shard_matches_the_lost_one_and_copies_by_reference():
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=4, **CHAOS))
    pool = cluster.create_erasure_pool("pool", pg_num=8, k=4, m=2)
    manager = cluster.enable_recovery(RecoveryConfig())
    client = cluster.new_client()
    run(env, write(client, pool, KEY, BLOCK * 4))
    acting = client.compute_placement(pool, KEY)
    victim, shard = acting[0], f"{KEY}.s0"
    lost_facts = facts(cluster.daemons[victim].store, shard)
    lost = bytes(cluster.daemons[victim].store.image(shard))
    peers = {o: facts(cluster.daemons[o].store, f"{KEY}.s{r}")
             for r, o in enumerate(acting) if o != victim}

    cluster.fail_osd(victim)
    run(env, manager.wait_converged())
    rebuilt_on = client.compute_placement(pool, KEY)[0]
    assert rebuilt_on != victim
    rebuilt = cluster.daemons[rebuilt_on].store
    assert facts(rebuilt, shard) == lost_facts
    rebuilt_image = rebuilt.image(shard)

    # Revived empty, the victim is backfilled with a copy of the rebuilt
    # shard: the same payload object, not a copy of its bytes.
    cluster.monitor.revive_osd(victim)
    run(env, manager.wait_converged())
    assert client.compute_placement(pool, KEY)[0] == victim
    revived = cluster.daemons[victim].store
    assert_copy_of(revived, lost_facts, rebuilt_image, shard)
    revived.write(shard, 0, b"one copy only")
    assert bytes(rebuilt_image) == lost
    for osd_id, want in peers.items():
        rank = acting.index(osd_id)
        assert facts(cluster.daemons[osd_id].store, f"{KEY}.s{rank}") == want


# --- memory: a sparse 4 MiB object recovers in its written bytes ------------------


def recover_sparse_object(durability=None):
    """Write one 4 KiB extent at the end of a 4 MiB object on three
    replicas, fail one, and recover it.  Returns the cluster, the failed
    OSD, the OSD holding the recovered replica, and the peak of new
    allocations during recovery."""
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=3, osds_per_host=4,
                                             durability=durability, **CHAOS))
    pool = cluster.create_replicated_pool("pool", pg_num=8, size=3)
    manager = cluster.enable_recovery(RecoveryConfig())
    client = cluster.new_client()
    run(env, client.write_replicated(pool, KEY, BLOCK, offset=mib(4) - kib(4), direct=True))
    acting = client.compute_placement(pool, KEY)
    victim = acting[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cluster.fail_osd(victim)
        run(env, manager.wait_converged())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    [target] = set(client.compute_placement(pool, KEY)) - set(acting)
    return cluster, victim, target, peak


def test_recovering_a_sparse_object_allocates_no_dense_copy():
    cluster, victim, target, peak = recover_sparse_object()
    assert peak < mib(1), f"recovery allocated {peak} bytes at its peak"
    source = cluster.daemons[victim].store
    recovered = cluster.daemons[target].store
    assert recovered.object_size(KEY) == mib(4) and recovered.used_bytes == kib(4)
    assert recovered.content_digest(KEY) == source.content_digest(KEY)
    assert recovered.stored_checksum(KEY) == source.stored_checksum(KEY)


def test_durable_push_installs_the_same_content_and_survives_a_restart():
    cluster, victim, target, _ = recover_sparse_object(durability=DurabilityConfig())
    want = facts(cluster.daemons[victim].store)
    daemon = cluster.daemons[target]
    assert facts(daemon.store) == want
    cluster.power_loss_osd(target)
    daemon.restart_from_wal()
    assert facts(daemon.store) == want
    assert daemon.store.read(KEY, mib(4) - kib(4), kib(4)) == BLOCK
