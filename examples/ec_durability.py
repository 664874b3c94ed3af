#!/usr/bin/env python
"""Erasure-coding durability: survive m device failures and rebuild.

Demonstrates the EC substrate end to end: client-side Reed-Solomon
encoding (the computation DeLiBA-K's RS accelerator offloads), shard
placement via CRUSH indep rules, degraded reads after killing m OSDs,
and online shard reconstruction — with byte-exact integrity checks.

Run:  python examples/ec_durability.py
"""

from repro.osd import ClusterSpec, build_cluster, shard_object_name
from repro.sim import Environment, MetricsRegistry
from repro.units import to_ms


def main() -> None:
    env = Environment()
    metrics = env.metrics = MetricsRegistry()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=6))
    k, m = 4, 2
    pool = cluster.create_erasure_pool("ecpool", pg_num=64, k=k, m=m)
    client = cluster.new_client()
    payload = bytes(range(256)) * 64  # 16 kB object

    def scenario(env):
        # Write: the client encodes k+m shards and addresses each OSD
        # directly (DeLiBA's datapath topology).
        yield from client.write_ec(pool, "dataset", payload, direct=True)
        acting = client.compute_placement(pool, "dataset")
        print(f"[{to_ms(env.now):7.2f} ms] wrote {len(payload)} B as "
              f"{k}+{m} shards on OSDs {acting}")
        overhead = (k + m) / k
        print(f"          storage overhead {overhead:.2f}x "
              "(vs 3.00x for 3-way replication)")

        # Kill m OSDs holding shards.  Online recovery is on first, so
        # each epoch bump re-peers the PG and backfills in the background.
        recovery = cluster.enable_recovery()
        for osd in acting[:m]:
            cluster.fail_osd(osd)
        print(f"[{to_ms(env.now):7.2f} ms] failed OSDs {acting[:m]} "
              f"({m} shards lost — the design limit)")

        # Degraded read: surviving k shards reconstruct the object.
        data = yield from client.read_ec(pool, "dataset", len(payload), direct=True)
        assert data == payload, "degraded read corrupted data!"
        print(f"[{to_ms(env.now):7.2f} ms] degraded read OK (byte-exact)")

        # Recovery: the lost shards are rebuilt onto the new acting set.
        yield from recovery.wait_converged()
        print(f"[{to_ms(env.now):7.2f} ms] recovery moved "
              f"{metrics.counter('recovery.bytes_pushed').value} B "
              f"for {metrics.counter('recovery.objects_recovered').value} object(s)")

        # All k+m shards exist again on live OSDs.
        live = [d for d in cluster.daemons.values() if cluster.osdmap.osds[d.osd_id].up]
        shards_present = sum(
            1
            for rank in range(k + m)
            if any(shard_object_name("dataset", rank) in d.store for d in live)
        )
        print(f"[{to_ms(env.now):7.2f} ms] shards on live OSDs: {shards_present}/{k + m}")

        data = yield from client.read_ec(pool, "dataset", len(payload), direct=True)
        assert data == payload
        print(f"[{to_ms(env.now):7.2f} ms] post-recovery read OK")

    env.process(scenario(env))
    env.run()


if __name__ == "__main__":
    main()
