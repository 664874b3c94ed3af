#!/usr/bin/env python
"""Cluster resize + DFX: swap the bucket accelerator as the cluster changes.

Paper Section IV-C: storage clusters shrink (disk failures) and grow
(new disks), and each cluster shape favors a different CRUSH bucket
accelerator — uniform for homogeneous pools, list for expanding ones,
tree for large/nested ones.  DeLiBA-K keeps all three as Reconfigurable
Modules and swaps them live over the MCAP without power-cycling.

This example: writes data, fails an OSD (CRUSH remaps + recovery), adds
capacity back, and performs the matching partial reconfigurations,
reporting data movement and reconfiguration times.

Run:  python examples/cluster_rebalance_dfx.py
"""

from repro.fpga import AlveoU280, DfxController, build_deliba_k_rms, pr_verify
from repro.osd import ClusterSpec, build_cluster
from repro.sim import Environment, MetricsRegistry
from repro.units import to_ms


def main() -> None:
    env = Environment()
    metrics = MetricsRegistry()
    cluster = build_cluster(env, ClusterSpec(num_server_hosts=2, osds_per_host=4), metrics=metrics)
    pool = cluster.create_replicated_pool("rbd", pg_num=64, size=3)
    client = cluster.new_client()
    # Online recovery: every epoch bump re-peers the PGs and backfills
    # missing copies in the background.
    recovery = cluster.enable_recovery()
    pushed = metrics.counter("recovery.bytes_pushed")
    recovered = metrics.counter("recovery.objects_recovered")

    # The FPGA side: one reconfigurable partition in SLR0, three RMs.
    device = AlveoU280()
    partition = build_deliba_k_rms(device)
    dfx = DfxController(env, device, partition)
    problems = pr_verify(partition)
    print(f"pr_verify: {'OK' if not problems else problems}")

    def scenario(env):
        # Homogeneous cluster -> uniform bucket accelerator.
        yield from dfx.reconfigure("rm3_uniform")
        print(f"[{to_ms(env.now):8.1f} ms] loaded {partition.active} "
              "(homogeneous cluster)")

        # Write objects.
        for i in range(30):
            yield from client.write_replicated(pool, f"obj{i}", bytes([i]) * 1024)
        print(f"[{to_ms(env.now):8.1f} ms] wrote 30 objects, 3x replicated")

        # A disk dies: cluster shrinks, CRUSH remaps, recovery re-replicates.
        victim = client.compute_placement(pool, "obj0")[0]
        cluster.fail_osd(victim)
        print(f"[{to_ms(env.now):8.1f} ms] osd.{victim} failed "
              f"(epoch {cluster.osdmap.epoch})")
        yield from recovery.wait_converged()
        print(f"[{to_ms(env.now):8.1f} ms] recovery: {recovered.value} objects "
              f"re-replicated, {pushed.value} bytes moved")

        # Shrinking/heterogeneous cluster -> tree bucket accelerator.
        swap_ns = dfx.reconfiguration_ns("rm2_tree")
        yield from dfx.reconfigure("rm2_tree")
        print(f"[{to_ms(env.now):8.1f} ms] DFX swap to {partition.active} "
              f"took {to_ms(swap_ns):.1f} ms (static region kept running)")

        # Expansion: new device joins -> list bucket accelerator, and
        # backfill moves the remapped objects onto the new OSD (while the
        # swap runs, so the byte count starts before the OSD joins).
        before = pushed.value
        new = cluster.add_osd("server0")
        yield from dfx.reconfigure("rm1_list")
        yield from recovery.wait_converged()
        print(f"[{to_ms(env.now):8.1f} ms] added osd.{new}; loaded "
              f"{partition.active}; backfill moved {pushed.value - before} bytes")

        # Everything still readable after all the churn.
        ok = 0
        for i in range(30):
            data = yield from client.read_replicated(pool, f"obj{i}", 0, 1024)
            ok += data == bytes([i]) * 1024
        print(f"[{to_ms(env.now):8.1f} ms] verified {ok}/30 objects intact")
        print(f"total reconfigurations: {dfx.reconfigurations}")

    env.process(scenario(env))
    env.run()


if __name__ == "__main__":
    main()
