"""Online self-healing: PG state machine, recovery agents, chaos convergence.

Covers the ``repro.osd.recovery`` subsystem end to end: kill/revive/expand
convergence under concurrent client IO (replicated and EC), degraded-mode
availability (zero client hard-failures while healing), the per-PG missing
set (a write landing during backfill is never clobbered by a stale push),
EC unrecoverability surfacing as an ``incomplete`` PG state, and the
hardened monitor (flap damping, per-probe heartbeats, bounded failure log).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.recovery import read_object as read
from repro.bench.recovery import write_object as write
from repro.osd import (
    ClusterSpec,
    FaultInjector,
    OpKind,
    OpPolicy,
    OsdConfig,
    OsdOp,
    PGState,
    RecoveryConfig,
    Scrubber,
    build_cluster,
)
from repro.osd.monitor import FAILURES_DETECTED_CAP
from repro.sim import Environment, MetricsRegistry
from repro.units import ms, us

#: Client policy for chaos runs: IO against a just-killed OSD must fail
#: over (bounded timeout, generous retries), never hang or error out.
CHAOS_POLICY = OpPolicy(timeout_ns=ms(20), max_attempts=12)
CHAOS_OSD = OsdConfig(subop_timeout_ns=ms(5))


def build(pool_kind="replicated", pg_num=16, config=None, **kw):
    env = Environment()
    metrics = MetricsRegistry()
    spec = ClusterSpec(
        num_server_hosts=2, osds_per_host=4,
        op_policy=CHAOS_POLICY, osd_config=CHAOS_OSD, **kw,
    )
    cluster = build_cluster(env, spec, metrics=metrics)
    if pool_kind == "replicated":
        pool = cluster.create_replicated_pool("pool", pg_num=pg_num, size=3)
    else:
        pool = cluster.create_erasure_pool("pool", pg_num=pg_num, k=4, m=2)
    manager = cluster.enable_recovery(config or RecoveryConfig())
    return env, metrics, cluster, pool, manager


def run(env, gen):
    p = env.process(gen)
    env.run()
    if not p.ok:
        raise p.value
    return p.value


def payload_for(n, size=4096):
    return {
        f"obj{i:03d}": bytes([(i * 7 + j) % 251 for j in range(size)])
        for i in range(n)
    }


# --- convergence under concurrent client load ---------------------------------


@pytest.mark.parametrize("pool_kind", ["replicated", "ec"])
def test_kill_revive_converges_under_load(pool_kind):
    """The acceptance scenario: kill an OSD mid-workload, converge,
    revive it, converge again — all while a client keeps issuing IO.
    Zero hard-failures, byte-identical reads through a second client,
    and a clean deep scrub."""
    env, metrics, cluster, pool, manager = build(pool_kind)
    client = cluster.new_client()
    verifier = cluster.new_client("verifier")
    payload = payload_for(16)
    load = {"ios": 0, "failures": 0}
    stop = {"flag": False}

    def client_load():
        names = sorted(payload)
        i = 0
        while not stop["flag"]:
            name = names[i % len(names)]
            try:
                if i % 3 == 2:
                    yield from write(client, pool, name, payload[name])
                else:
                    got = yield from read(client, pool, name, len(payload[name]))
                    assert got == payload[name]
                load["ios"] += 1
            except AssertionError:
                raise
            except Exception:
                load["failures"] += 1
            i += 1
            yield env.timeout(us(100))

    def main():
        for name, data in payload.items():
            yield from write(client, pool, name, data)
        env.process(client_load(), name="load")
        cluster.fail_osd(3)
        yield from manager.wait_converged()
        assert manager.pg_states()["peering"] == 0
        cluster.monitor.revive_osd(3)
        yield from manager.wait_converged()
        stop["flag"] = True
        for name, data in payload.items():
            got = yield from read(verifier, pool, name, len(data))
            assert got == data, f"{name} diverged after recovery"
        scrubber = Scrubber(env, cluster.monitor)
        report = yield from scrubber.scrub(pool, deep=True)
        assert report.clean, [vars(i) for i in report.inconsistencies[:3]]

    run(env, main())
    assert load["failures"] == 0, f"{load['failures']} client hard-failures while degraded"
    assert load["ios"] > 0, "client load never ran during recovery"
    assert metrics.counter("recovery.bytes_pushed").value > 0
    assert manager.converged
    # The revived OSD finished backfill: authoritative absence again.
    assert not cluster.daemons[3].backfill_reserve


def test_expand_converges():
    """Adding an OSD remaps PGs; recovery populates the newcomer and
    trims strays off the members that lost responsibility."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    client = cluster.new_client()
    payload = payload_for(12)

    def main():
        for name, data in payload.items():
            yield from write(client, pool, name, data)
        cluster.add_osd(cluster.server_hosts[0])
        yield from manager.wait_converged()
        for name, data in payload.items():
            got = yield from read(client, pool, name, len(data))
            assert got == data
        scrubber = Scrubber(env, cluster.monitor)
        report = yield from scrubber.scrub(pool, deep=True)
        assert report.clean, [vars(i) for i in report.inconsistencies[:3]]

    run(env, main())
    assert manager.converged


def test_recovery_traffic_moves_through_fabric():
    """Every recovery byte travels as fabric ops: killing one OSD must
    produce PULL/PUSH traffic measurable at the OSD op counters, not
    silent store-to-store copies."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    client = cluster.new_client()
    payload = payload_for(8)

    def main():
        for name, data in payload.items():
            yield from write(client, pool, name, data)
        before = cluster.total_ops_served()
        cluster.fail_osd(0)
        yield from manager.wait_converged()
        assert cluster.total_ops_served() > before, "no ops hit the OSD queues"

    run(env, main())
    pushed = metrics.counter("recovery.bytes_pushed").value
    pulled = metrics.counter("recovery.bytes_pulled").value
    assert pushed > 0 and pulled > 0
    assert metrics.counter("recovery.ops").value > 0


# --- degraded-mode and write-during-backfill ----------------------------------


def test_ec_unrecoverable_marks_incomplete():
    """Fewer than k surviving shards is an ``incomplete`` PG state and a
    counted unrecoverable object — never an uncaught StorageError or a
    recovery hang."""
    env, metrics, cluster, pool, manager = build("ec", pg_num=8)
    client = cluster.new_client()
    data = bytes(range(256)) * 16

    def main():
        yield from write(client, pool, "victim", data)
        # Kill three of the six acting members: 6 - 3 = 3 < k=4 shards.
        acting = client.compute_placement(pool, "victim")
        for osd_id in list(dict.fromkeys(acting))[:3]:
            cluster.fail_osd(osd_id)
        yield from manager.wait_converged()

    run(env, main())
    assert manager.converged
    assert manager.objects_unrecoverable >= 1
    assert manager.pg_states()["incomplete"] >= 1
    # A full client rewrite is the documented way out: incomplete keys
    # are not write-gated.
    def rewrite():
        yield from write(client, pool, "victim", data)
        got = yield from read(client, pool, "victim", len(data))
        assert got == data

    run(env, rewrite())


def test_stale_push_never_clobbers_newer_write():
    """Version-guarded PUSH: a backfill push carrying an older version
    than the local object is acknowledged as stale, not applied."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    client = cluster.new_client()
    new = b"new" * 100
    old = b"old" * 100

    def main():
        yield from write(client, pool, "obj", new)
        target = client.compute_placement(pool, "obj")[0]
        daemon = cluster.daemons[target]
        version = daemon.versions["obj"]
        push = OsdOp(
            OpKind.PUSH, pool.pool_id, "obj", 0, len(old),
            data=old, version=version - 1, epoch=cluster.osdmap.epoch,
        )
        helper = cluster.daemons[(target + 1) % len(cluster.daemons)]
        reply = yield from helper.call(f"osd.{target}", push)
        assert reply.ok and reply.stale
        assert daemon.store.read("obj", 0, len(new)) == new

    run(env, main())


@settings(max_examples=6, deadline=None)
@given(
    victim=st.integers(min_value=0, max_value=7),
    overwrite=st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
)
def test_write_during_backfill_never_loses_data(victim, overwrite):
    """Property: writes racing the backfill of a revived-empty OSD always
    win.  Whatever subset of objects a client rewrites *while recovery is
    repopulating the revived member*, a later read returns the rewrite —
    the missing-set gate plus version-guarded pushes make the race safe."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    client = cluster.new_client()
    verifier = cluster.new_client("verifier")
    payload = payload_for(8, size=2048)
    names = sorted(payload)
    expected = dict(payload)

    def main():
        for name, data in payload.items():
            yield from write(client, pool, name, data)
        cluster.fail_osd(victim)
        yield from manager.wait_converged()
        cluster.monitor.revive_osd(victim)
        # Race the backfill: no wait before rewriting.
        for i in sorted(overwrite):
            name = names[i]
            fresh = bytes([(i * 31 + j) % 253 for j in range(2048)])
            expected[name] = fresh
            yield from write(client, pool, name, fresh)
        yield from manager.wait_converged()
        for name in names:
            got = yield from read(verifier, pool, name, len(expected[name]))
            assert got == expected[name], f"{name}: rewrite lost during backfill"

    run(env, main())
    assert manager.converged


# --- monitor hardening --------------------------------------------------------


def test_flap_damping_suppresses_transient_failures():
    """A link flap shorter than ``down_out_interval`` must not publish an
    epoch: probes fail, the OSD turns suspect, probes recover, the flap
    is counted as suppressed and nobody was marked down."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    cluster.monitor.down_out_interval_ns = ms(2)
    injector = FaultInjector(cluster)

    def main():
        cluster.monitor.start_heartbeats(interval_ns=us(100), grace_ns=us(50))
        # Flap the second host's link: down 300 us, back up, twice.
        injector.flap_link(cluster.server_hosts[1], us(300), us(300), count=2)
        yield env.timeout(ms(3))
        cluster.monitor.stop_heartbeats()

    run(env, main())
    assert len(cluster.monitor.failures_detected) == 0, "flap escalated to down"
    assert cluster.monitor.flaps_suppressed > 0
    assert metrics.counter("mon.flaps_suppressed").value == cluster.monitor.flaps_suppressed
    assert cluster.osdmap.up_osds() == list(range(8))


def test_flap_damping_still_detects_real_death():
    """Damping delays but never suppresses detection of a genuinely dead
    OSD: after ``down_out_interval`` of continuous probe failure the OSD
    is marked down exactly once."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    cluster.monitor.down_out_interval_ns = us(500)

    def main():
        cluster.monitor.start_heartbeats(interval_ns=us(100), grace_ns=us(50))
        cluster.crash_osd(3)  # silent: detection is the heartbeat's job
        yield env.timeout(ms(3))
        cluster.monitor.stop_heartbeats()
        yield from manager.wait_converged()

    run(env, main())
    assert list(cluster.monitor.failures_detected) == [3]
    assert metrics.counter("mon.failures_detected").value == 1
    assert not cluster.osdmap.osds[3].up


def test_flap_damping_deterministic():
    """Same seed, same schedule => identical suppression counts and
    failure logs across two independent runs."""

    def one_run():
        env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
        cluster.monitor.down_out_interval_ns = ms(1)
        injector = FaultInjector(cluster)

        def main():
            cluster.monitor.start_heartbeats(interval_ns=us(100), grace_ns=us(50))
            injector.flap_link(cluster.server_hosts[1], us(300), us(300), count=3)
            cluster.crash_osd(2)
            yield env.timeout(ms(4))
            cluster.monitor.stop_heartbeats()

        run(env, main())
        return (
            list(cluster.monitor.failures_detected),
            cluster.monitor.flaps_suppressed,
            metrics.distribution("mon.heartbeat_rtt_ns").count,
        )

    assert one_run() == one_run()


def test_heartbeat_probes_resolve_independently():
    """No head-of-line blocking: while a dead OSD's probe waits out its
    grace window, live OSDs' replies are still recorded promptly (every
    observed RTT is far below the grace deadline) and the dead OSD is
    detected within one interval+grace round."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    grace = us(50)

    def main():
        cluster.crash_osd(5)
        cluster.monitor.start_heartbeats(interval_ns=us(100), grace_ns=grace)
        yield env.timeout(us(200))  # one interval + one grace + slack
        cluster.monitor.stop_heartbeats()

    run(env, main())
    assert 5 in cluster.monitor.failures_detected
    rtt = metrics.distribution("mon.heartbeat_rtt_ns")
    assert rtt.count > 0, "live probes never recorded"
    assert rtt.max() < grace, "live probe RTTs delayed by the dead OSD's grace window"


def test_failures_detected_is_bounded():
    """The failure log is a bounded deque: unbounded growth under a
    flapping link was a monitor memory leak."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    mon = cluster.monitor
    assert mon.failures_detected.maxlen == FAILURES_DETECTED_CAP
    for i in range(FAILURES_DETECTED_CAP + 100):
        mon.failures_detected.append(i % 8)
    assert len(mon.failures_detected) == FAILURES_DETECTED_CAP


# --- revive semantics ---------------------------------------------------------


def test_revive_clears_store_and_backfills():
    """A revived OSD never serves its pre-failure (stale) content: the
    store is cleared on revive and repopulated by backfill; mid-backfill
    absent reads fail over to surviving copies instead of answering
    authoritative zeros."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=8)
    client = cluster.new_client()
    payload = payload_for(8)

    def main():
        for name, data in payload.items():
            yield from write(client, pool, name, data)
        cluster.fail_osd(2)
        # Overwrite everything while OSD 2 is down: its content is stale.
        for name in payload:
            payload[name] = bytes(reversed(payload[name]))
            yield from write(client, pool, name, payload[name])
        yield from manager.wait_converged()
        cluster.monitor.revive_osd(2)
        assert len(cluster.daemons[2].store.object_names()) == 0
        assert cluster.daemons[2].backfill_reserve
        # Reads stay correct the whole way through the backfill.
        for name, data in payload.items():
            got = yield from read(client, pool, name, len(data))
            assert got == data
        yield from manager.wait_converged()
        for name, data in payload.items():
            got = yield from read(client, pool, name, len(data))
            assert got == data

    run(env, main())
    assert not cluster.daemons[2].backfill_reserve
    assert metrics.counter("recovery.bytes_pushed").value > 0


def test_pg_states_progress_and_gauges():
    """State transitions land in the metrics gauges and the PG map:
    after convergence nothing is left peering/backfilling and the gauge
    totals equal the PG count."""
    env, metrics, cluster, pool, manager = build("replicated", pg_num=16)
    client = cluster.new_client()

    def main():
        for name, data in payload_for(8).items():
            yield from write(client, pool, name, data)
        cluster.fail_osd(1)
        yield from manager.wait_converged()

    run(env, main())
    states = manager.pg_states()
    assert states["peering"] == 0 and states["backfilling"] == 0
    assert sum(states.values()) == 16
    gauge_total = sum(
        metrics.gauge(f"recovery.pg_state.{s.value}").value for s in PGState
    )
    assert gauge_total == 16
    assert states["recovered"] == metrics.gauge("recovery.pg_state.recovered").value
