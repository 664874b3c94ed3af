"""The recovery ledger's PG lookup.

``RecoveryManager.pg_index`` memoizes each store key's PG index per pool
PG count.  ``_pg_of``, which ``is_missing`` and ``write_gate`` call on
every OSD read and mutation, and each OSD's PG_LIST peering census read
it.  The property here requires the memo to agree with ``object_to_pg``
over random object names, EC shard keys and PG counts, and the counts
below pin the saving: a replica write no longer hashes the object's
name, and a peering pass hashes each store key once, not once per
listing.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crush.placement as placement
from repro.bench.recovery import write_object
from repro.crush import object_to_pg
from repro.osd import ClusterSpec, build_cluster
from repro.osd.osd import base_object_name, shard_object_name
from repro.sim import Environment
from repro.units import kib


def _cluster(recovery, pg_nums=(16,)):
    env = Environment()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=4))
    pools = [cluster.create_replicated_pool(f"p{i}", pg_num=n, size=3)
             for i, n in enumerate(pg_nums)]
    manager = cluster.enable_recovery() if recovery else None
    return env, cluster, pools, manager


names = st.text(st.sampled_from("abo.s0123456789_"), min_size=1, max_size=12)
keys = st.one_of(names, st.tuples(names, st.integers(0, 11)).map(lambda t: shard_object_name(*t)))


@settings(max_examples=60, deadline=None)
@given(pg_nums=st.lists(st.integers(1, 70), min_size=1, max_size=3),
       keys=st.lists(keys, min_size=1, max_size=8))
def test_pg_lookup_agrees_with_object_to_pg(pg_nums, keys):
    _, _, pools, manager = _cluster(True, pg_nums)
    for _ in range(2):  # the second pass reads the memo
        for key in keys:
            for pool in pools:
                info = manager._pg_of(pool.pool_id, key)
                assert (info.pool_id, info.pg_id) == (
                    pool.pool_id, object_to_pg(base_object_name(key), pool.pg_num)
                )


def _count_hashes(monkeypatch):
    """Patch ``str_hash``; returns the list each hashed string lands in."""
    hashed = []
    str_hash = placement.str_hash
    monkeypatch.setattr(placement, "str_hash", lambda s: hashed.append(s) or str_hash(s))
    return hashed


def _hashes_of(name, writes, recovery, monkeypatch):
    """How often ``name`` is hashed by ``writes`` direct size-3 writes of it."""
    env, cluster, (pool,), _ = _cluster(recovery)
    client = cluster.new_client()
    hashed = _count_hashes(monkeypatch)

    def job():
        for i in range(writes):
            yield from write_object(client, pool, name, bytes([i]) * kib(4))

    env.process(job())
    env.run()
    monkeypatch.undo()
    return hashed.count(name)


def test_replica_writes_hash_the_object_name_once_for_the_ledger(monkeypatch):
    """Eight writes reach 24 replica writes, each through ``write_gate``;
    with the ledger on, the name is hashed once more than the client's
    own placement hashes it."""
    client_only = _hashes_of("obj", 8, False, monkeypatch)
    assert _hashes_of("obj", 8, True, monkeypatch) == client_only + 1


def test_peering_hashes_each_store_key_once_per_pg_count(monkeypatch):
    """A peering pass over every PG sends each OSD one PG_LIST per PG;
    the listings read the ledger's memo, so each store key is hashed at
    most once however many PGs are listed."""
    env, cluster, (pool,), _ = _cluster(False)
    client = cluster.new_client()
    names = [f"obj{i}" for i in range(12)]

    def job():
        for name in names:
            yield from write_object(client, pool, name, b"x" * kib(4))

    env.process(job())
    env.run()
    manager = cluster.enable_recovery()  # an empty memo: peering hashes first
    hashed = _count_hashes(monkeypatch)
    manager.kick()
    env.run()
    monkeypatch.undo()
    assert manager.converged
    assert sorted(set(hashed)) == sorted(names)
    assert max(Counter(hashed).values()) == 1
